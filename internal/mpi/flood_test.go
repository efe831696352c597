package mpi

import (
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"

	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// A flood scenario runs one script under four ways of sending its markers
// and wants the same deliveries, at the same instants and in the same
// order, and the same kernel counts from every one of them.  The
// reference is the per-channel path: a payload first opens every pair's
// channel, and each marker is one Send on an open channel.  The others
// flood with Fabric.Flood on those open channels, flood on pairs that
// never carried a payload (posted runs), and Send each marker on such
// pairs (posted one by one).
type floodMode int

const (
	perChannel floodMode = iota
	floodOnChannels
	floodPosted
	sendPosted
)

func (m floodMode) String() string {
	return [...]string{"per-channel Send", "Flood on open channels", "Flood on new pairs", "Send on new pairs"}[m]
}

// floodT0 is when a script starts: the reference's channel-opening
// payloads have long been delivered and every NIC is idle.
const floodT0 = time.Second

// floodRec is one delivery a script's endpoints saw from floodT0 on.
type floodRec struct {
	t             sim.Time
	src, dst, tag int
	kind          Kind
	wave          int
	span          uint64
}

// floodRig is one run of a script.
type floodRig struct {
	t    *testing.T
	mode floodMode
	k    *sim.Kernel
	net  *simnet.Network
	fab  *Fabric
	eps  int
	log  []floodRec
	// base is the kernel's counts at floodT0.
	base sim.Stats
}

func newFloodRig(t *testing.T, mode floodMode, topo simnet.Topology, eps, ppn int) *floodRig {
	r := &floodRig{t: t, mode: mode, k: sim.New(1), eps: eps}
	r.net = simnet.New(r.k, topo)
	r.fab = NewFabric(r.net)
	for id := 0; id < eps; id++ {
		r.fab.Place(id, id/ppn)
		r.bind(id)
	}
	if mode == perChannel || mode == floodOnChannels {
		for src := 0; src < eps; src++ {
			for dst := 0; dst < eps; dst++ {
				if dst != src {
					r.fab.Send(src, dst, &Packet{Kind: KindPayload, Tag: 99})
				}
			}
		}
	}
	return r
}

func (r *floodRig) bind(id int) {
	r.fab.Bind(id, func(p *Packet) {
		if r.k.Now() >= floodT0 {
			r.log = append(r.log, floodRec{r.k.Now(), p.Src, p.Dst, p.Tag, p.Kind, p.Wave, p.SpanID})
		}
	})
}

// flood sends wave w's markers from src to every other endpoint, the k-th
// with span span+k.
func (r *floodRig) flood(src, w int, span uint64) {
	switch r.mode {
	case floodOnChannels, floodPosted:
		r.fab.Flood(src, 0, r.eps, &Packet{Kind: KindMarker, Wave: w, SpanID: span})
	default:
		for dst := 0; dst < r.eps; dst++ {
			if dst != src {
				r.fab.Send(src, dst, &Packet{Kind: KindMarker, Wave: w, SpanID: span})
				span++
			}
		}
	}
}

// at runs fn at floodT0+d.
func (r *floodRig) at(d time.Duration, fn func()) { r.k.At(floodT0+d, fn) }

// run runs the kernel and returns the kernel's counts from floodT0 on.
func (r *floodRig) run() (scheduled, fired uint64) {
	r.k.At(floodT0, func() { r.base = r.k.Stats() })
	if err := r.k.Run(); err != nil {
		r.t.Fatal(err)
	}
	st := r.k.Stats()
	return st.Scheduled - r.base.Scheduled, st.Fired - r.base.Fired
}

// channels counts the channels the fabric holds open.
func (r *floodRig) channels() int { return len(openChans(r.fab)) }

// floodScript sets a scenario up on a rig; the rig's kernel then runs.
type floodScript struct {
	name     string
	topo     simnet.Topology
	eps, ppn int
	script   func(r *floodRig)
	// check looks at the posted flood's run: its log and its rig.
	check func(t *testing.T, r *floodRig)
}

// clusters builds a grid of clusters of n nodes, one per NIC bandwidth.
// The WAN is faster than any NIC, so a message crossing it between two
// clusters of one bandwidth is told from one inside a cluster only by its
// lane and latency, and two WAN messages from one node only by the
// bandwidth of the far NIC.
func clusters(n int, nicBW ...simnet.Rate) simnet.Topology {
	topo := simnet.Topology{WanLatency: 5 * time.Millisecond, WanBW: 1e9}
	for i, bw := range nicBW {
		topo.Clusters = append(topo.Clusters, simnet.ClusterSpec{
			Name: fmt.Sprint("c", i), Nodes: n, NICBW: bw, Latency: time.Duration(50-10*i) * time.Microsecond,
		})
	}
	return topo
}

// markerGap is how long one marker holds a testTopo NIC.
var markerGap = sim.Time(float64(packetHeader) / 100e6 * 1e9)

func floodScripts() []floodScript {
	return []floodScript{{
		// Every endpoint floods at once over two clusters, two endpoints a
		// node, while two pairs carry a bulk payload: a source's markers
		// split into runs by lane class and by the node it shares, and
		// queue on the busy channels.
		name: "two-cluster", topo: clusters(4, 100e6, 100e6), eps: 16, ppn: 2,
		script: func(r *floodRig) {
			r.at(0, func() {
				r.fab.Send(3, 12, &Packet{Kind: KindPayload, Tag: 1, VSize: 1 << 20})
				r.fab.Send(9, 2, &Packet{Kind: KindPayload, Tag: 1, VSize: 1 << 20})
				for src := 0; src < r.eps; src++ {
					r.flood(src, 1, uint64(1+src*r.eps))
				}
			})
		},
		check: func(t *testing.T, r *floodRig) {
			if n := r.channels(); n != 2 {
				t.Errorf("%d channels open, want the 2 the payloads opened", n)
			}
			// A source's runs: its cluster's endpoints before its node,
			// its node's other endpoint, its cluster's after it, the
			// other cluster; a busy channel takes its marker out.
			if lanes := r.k.Stats().LaneMax; lanes > 4*r.eps {
				t.Errorf("lane high water %d records, want at most 4 a source (%d)", lanes, 4*r.eps)
			}
		},
	}, {
		// Three clusters, the third with slower NICs: a source's WAN
		// markers split into runs by the far NIC's bandwidth.
		name: "wan-bandwidths", topo: clusters(2, 100e6, 100e6, 20e6), eps: 6, ppn: 1,
		script: func(r *floodRig) {
			r.at(0, func() {
				for src := 0; src < r.eps; src++ {
					r.flood(src, 1, uint64(1+src*r.eps))
				}
			})
		},
	}, {
		// A small and a bulk payload sent on control-only pairs while their
		// markers are still on the NIC horizon arrive after the markers.
		name: "payload-behind-marker", topo: testTopo(8), eps: 8, ppn: 1,
		script: func(r *floodRig) {
			r.at(0, func() { r.flood(0, 1, 1) })
			r.at(2*markerGap, func() {
				r.fab.Send(0, 7, &Packet{Kind: KindPayload, Tag: 1, VSize: 100})
				r.fab.Send(0, 6, &Packet{Kind: KindPayload, Tag: 2, VSize: 1 << 20})
			})
		},
		check: func(t *testing.T, r *floodRig) {
			for _, dst := range []int{6, 7} {
				i := slices.IndexFunc(r.log, func(x floodRec) bool { return x.dst == dst && x.kind == KindMarker })
				j := slices.IndexFunc(r.log, func(x floodRec) bool { return x.dst == dst && x.kind == KindPayload })
				if i < 0 || j < 0 || j < i || r.log[j].t <= r.log[i].t {
					t.Errorf("to %d: marker at delivery %d, payload at %d: want the payload after the marker", dst, i, j)
				}
			}
		},
	}, {
		// The destination dies mid-run and is bound again before the rest
		// of its markers arrive: its undelivered ones are lost, as on a
		// closed channel, and a later flood reaches it.
		name: "unbind-dst", topo: testTopo(8), eps: 8, ppn: 1,
		script: func(r *floodRig) {
			for src := 0; src < 3; src++ {
				r.at(0, func() { r.flood(src, 1, uint64(1+src*8)) })
			}
			r.at(50*time.Microsecond+4*markerGap+markerGap/2, func() {
				r.fab.Unbind(5)
				r.bind(5)
			})
			r.at(time.Millisecond, func() { r.flood(1, 2, 100) })
		},
		check: func(t *testing.T, r *floodRig) {
			// Each source's marker to 4 left fourth, in time; the one to 5
			// fifth, after the unbind.
			var to4, to5, late int
			for _, x := range r.log {
				switch {
				case x.wave == 2 && x.dst == 5:
					late++
				case x.wave == 1 && x.dst == 4:
					to4++
				case x.wave == 1 && x.dst == 5:
					to5++
				}
			}
			if to4 != 3 || to5 != 0 || late != 1 {
				t.Errorf("wave 1 delivered %d markers to 4 and %d to 5, wave 2 %d to 5; want 3, 0 and 1", to4, to5, late)
			}
		},
	}, {
		// The source dies mid-run and is bound again at once: every marker
		// of its flood not yet delivered is lost.
		name: "unbind-src", topo: testTopo(8), eps: 8, ppn: 1,
		script: func(r *floodRig) {
			r.at(0, func() {
				r.flood(0, 1, 1)
				r.flood(4, 1, 20)
			})
			r.at(50*time.Microsecond+3*markerGap+markerGap/2, func() {
				r.fab.Unbind(0)
				r.bind(0)
				r.flood(0, 2, 40) // after the rebind: delivered
			})
		},
		check: func(t *testing.T, r *floodRig) {
			var w1, w2 int
			for _, x := range r.log {
				if x.src == 0 {
					if x.wave == 1 {
						w1++
					} else {
						w2++
					}
				}
			}
			if w1 != 3 || w2 != 7 {
				t.Errorf("from endpoint 0: %d wave-1 and %d wave-2 markers delivered, want 3 and 7", w1, w2)
			}
		},
	}, {
		// Control packets to scattered peers in one instant, then payloads
		// to them and to a peer between them while those are on the NIC:
		// each payload waits for its own pair's packet only.
		name: "scattered-control", topo: testTopo(8), eps: 8, ppn: 1,
		script: func(r *floodRig) {
			r.at(0, func() {
				for _, dst := range []int{3, 6, 7, 1} {
					r.fab.Send(0, dst, &Packet{Kind: KindControl, Tag: 5, Wave: dst})
				}
				r.fab.Send(0, 4, &Packet{Kind: KindPayload, Tag: 1, VSize: 10})
				r.fab.Send(0, 6, &Packet{Kind: KindPayload, Tag: 2, VSize: 10})
				r.fab.Send(0, 1, &Packet{Kind: KindPayload, Tag: 3, VSize: 1 << 16})
			})
		},
	}, {
		// A second flood while the first is still on the NIC: its markers
		// queue behind the first's, on channels opened for them.
		name: "second-wave-on-nic", topo: testTopo(4), eps: 8, ppn: 2,
		script: func(r *floodRig) {
			r.at(0, func() { r.flood(0, 1, 1) })
			r.at(2*markerGap, func() {
				r.flood(0, 2, 50)
				r.fab.Send(1, 0, &Packet{Kind: KindControl, Tag: 3})
			})
		},
		check: func(t *testing.T, r *floodRig) {
			if n := r.channels(); n == 0 || n > 7 {
				t.Errorf("%d channels open, want one for each pair whose wave-1 marker was still on the NIC", n)
			}
		},
	}}
}

// TestFloodKeepsEveryKey runs every flood script under the four modes and
// wants the reference's deliveries and kernel counts from each.
func TestFloodKeepsEveryKey(t *testing.T) {
	for _, sc := range floodScripts() {
		t.Run(sc.name, func(t *testing.T) {
			var want []floodRec
			var wantSched, wantFired uint64
			for mode := perChannel; mode <= sendPosted; mode++ {
				r := newFloodRig(t, mode, sc.topo, sc.eps, sc.ppn)
				sc.script(r)
				sched, fired := r.run()
				if mode == perChannel {
					want, wantSched, wantFired = r.log, sched, fired
					if len(want) == 0 {
						t.Fatal("the reference delivered nothing")
					}
					continue
				}
				if sched != wantSched || fired != wantFired {
					t.Errorf("%v: %d keys drawn and %d events fired from t0, the reference %d and %d", mode, sched, fired, wantSched, wantFired)
				}
				if i := firstDiff(r.log, want); i >= 0 {
					t.Errorf("%v: delivery %d of %d is %s, the reference's is %s", mode, i, len(r.log), recAt(r.log, i), recAt(want, i))
				}
				if mode == floodPosted && sc.check != nil {
					sc.check(t, r)
				}
			}
		})
	}
}

func firstDiff(a, b []floodRec) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func recAt(log []floodRec, i int) string {
	if i >= len(log) {
		return "missing"
	}
	return fmt.Sprintf("%+v", log[i])
}

// TestFloodOpensNoChannel is the flood's state: a wave of floods from every
// endpoint on pairs that never carried a payload opens no channel, queues
// a few lane records a source (its runs: its node splits its cluster's,
// here one cluster), and a later wave allocates nothing — the post logs
// and the lanes' segments are reused.  No pair has state of its own: the
// fabric holds 16 bytes an open channel and nothing for the others.
func TestFloodOpensNoChannel(t *testing.T) {
	const eps, ppn = 64, 2
	k := sim.New(1)
	fab := NewFabric(simnet.New(k, testTopo(eps/ppn)))
	got := 0
	for id := 0; id < eps; id++ {
		fab.Place(id, id/ppn)
		fab.Bind(id, func(*Packet) { got++ })
	}
	w := 0
	wave := func(p *sim.Proc) {
		w++
		for src := 0; src < eps; src++ {
			fab.Flood(src, 0, eps, &Packet{Kind: KindMarker, Wave: w})
		}
		p.Advance(time.Second) // transmitted and delivered
	}
	var allocs float64
	k.Go("flooder", func(p *sim.Proc) {
		wave(p)
		allocs = testing.AllocsPerRun(5, func() { wave(p) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := w * eps * (eps - 1); got != want {
		t.Fatalf("delivered %d of %d markers", got, want)
	}
	for _, pair := range openChans(fab) {
		t.Errorf("a flood opened the channel %d->%d", pair[0], pair[1])
	}
	if lanes := k.Stats().LaneMax; lanes > 3*eps {
		t.Errorf("lane high water %d records, want at most 3 a source (%d)", lanes, 3*eps)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per wave of %d floods, want 0", allocs, eps)
	}
	if n := unsafe.Sizeof(conn{}); n > 16 {
		t.Errorf("a channel entry is %d bytes, want <= 16", n)
	}
}
