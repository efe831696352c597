package mpi

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

func TestFabricUnbindDropsInFlight(t *testing.T) {
	k := sim.New(1)
	net := simnet.New(k, testTopo(2))
	fab := NewFabric(net)
	fab.Place(0, 0)
	fab.Place(1, 1)
	delivered := 0
	fab.Bind(1, func(p *Packet) { delivered++ })
	fab.Send(0, 1, &Packet{Kind: KindPayload, Tag: 1, VSize: 50e6}) // ~0.5s in flight
	k.After(time.Millisecond, func() { fab.Unbind(1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("delivered %d after unbind", delivered)
	}
}

// TestFabricRebindResetsSequences pins Packet.Seq: the count of the
// packets a channel has carried since it opened.  A marker posted on a pair
// without a channel carries 0 and is not counted, so the payload that
// opens the channel behind it is 1; a marker sent on the open channel is
// counted.  Unbind closes the channel, and the one the next payload opens
// counts from 1 again, as after a reconnect.
func TestFabricRebindResetsSequences(t *testing.T) {
	k := sim.New(1)
	net := simnet.New(k, testTopo(2))
	fab := NewFabric(net)
	fab.Place(0, 0)
	fab.Place(1, 1)
	var seqs []uint64
	bind := func() {
		fab.Bind(1, func(p *Packet) { seqs = append(seqs, p.Seq) })
	}
	bind()
	fab.Send(0, 1, &Packet{Kind: KindMarker, Wave: 1})
	fab.Send(0, 1, &Packet{Kind: KindPayload, Tag: 1})
	fab.Send(0, 1, &Packet{Kind: KindPayload, Tag: 1})
	fab.Send(0, 1, &Packet{Kind: KindMarker, Wave: 1})
	k.After(time.Millisecond, func() {
		fab.Unbind(1)
		bind()
		fab.Send(0, 1, &Packet{Kind: KindMarker, Wave: 2})
		fab.Send(0, 1, &Packet{Kind: KindPayload, Tag: 1})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{0, 1, 2, 3, 0, 1}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("seqs %v, want %v", seqs, want)
	}
}

// TestFabricStateLinearInEdges is the fabric's memory at scale: every
// endpoint opens channels to the same few peers (by offset), and once
// those payloads are delivered, floods once.  The bytes allocated per
// endpoint at 4 096 endpoints stay within 1.5x of those at 512.  A table
// with an entry per ordered pair makes the ratio about 8.
func TestFabricStateLinearInEdges(t *testing.T) {
	perEndpoint := func(eps int) float64 {
		k := sim.New(1)
		net := simnet.New(k, testTopo(eps/2))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fab := NewFabric(net)
		for id := 0; id < eps; id++ {
			fab.Place(id, id/2)
			fab.Bind(id, func(*Packet) {})
		}
		for src := 0; src < eps; src++ {
			for _, d := range []int{1, 2, 3, 5, 8, 13, 21, 34} {
				fab.Send(src, (src+d)%eps, &Packet{Kind: KindPayload, Tag: 1, VSize: 8})
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for src := 0; src < eps; src++ {
			fab.Flood(src, 0, eps, &Packet{Kind: KindMarker, Wave: 1})
		}
		runtime.ReadMemStats(&after)
		if n := len(openChans(fab)); n != 8*eps {
			t.Fatalf("%d endpoints opened %d channels, want %d", eps, n, 8*eps)
		}
		runtime.KeepAlive(fab)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(eps)
	}
	small, large := perEndpoint(512), perEndpoint(4096)
	t.Logf("%.0f bytes an endpoint at 512, %.0f at 4096", small, large)
	if large > 1.5*small {
		t.Errorf("%.0f bytes allocated an endpoint at 4096 endpoints, %.0f at 512: want within 1.5x", large, small)
	}
}

// TestFabricPendingForgetsUnbound: a pair's posted packet is pending while
// it is on the NIC, until an Unbind of either end, which would have closed
// the channel it stands for; a post after the Unbind is pending again.
func TestFabricPendingForgetsUnbound(t *testing.T) {
	k := sim.New(1)
	fab := NewFabric(simnet.New(k, testTopo(3)))
	for id := 0; id < 3; id++ {
		fab.Place(id, id)
	}
	si := endpointIndex(0)
	want := func(step string, to1, to2 bool) {
		t.Helper()
		_, got1 := fab.pending(si, 0, 1)
		_, got2 := fab.pending(si, 0, 2)
		if got1 != to1 || got2 != to2 {
			t.Errorf("%s: posts 0->1 and 0->2 pending %v and %v, want %v and %v", step, got1, got2, to1, to2)
		}
	}
	fab.Flood(0, 0, 3, &Packet{Kind: KindMarker, Wave: 1})
	want("flood", true, true)
	fab.Unbind(1)
	want("unbind 1", false, true)
	fab.Send(0, 1, &Packet{Kind: KindControl})
	want("control to 1", true, true)
	fab.Unbind(0)
	want("unbind 0", false, false)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	fab.Send(0, 2, &Packet{Kind: KindControl})
	want("control to 2", false, true)
}

// openChans lists the (src, dst) endpoint pairs the fabric holds a channel
// for, in ascending order.
func openChans(f *Fabric) [][2]int {
	var pairs [][2]int
	for si, cs := range f.chans {
		for _, c := range cs {
			pairs = append(pairs, [2]int{si - handlerOff, int(c.dst) - handlerOff})
		}
	}
	return pairs
}

func TestFabricUnplacedPanics(t *testing.T) {
	k := sim.New(1)
	net := simnet.New(k, testTopo(1))
	fab := NewFabric(net)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unplaced endpoint")
		}
	}()
	fab.Send(0, 1, &Packet{})
}

// TestFabricBelowServiceRangePanics pins the one endpoint-id range: every
// entry point that takes an id rejects one below SchedulerID by name, as
// Bind does, instead of filing it somewhere no handler can ever be bound.
func TestFabricBelowServiceRangePanics(t *testing.T) {
	k := sim.New(1)
	fab := NewFabric(simnet.New(k, testTopo(2)))
	fab.Place(0, 0)
	fab.Place(SchedulerID, 1) // the lowest valid id
	bad := SchedulerID - 1
	for name, call := range map[string]func(){
		"Place":    func() { fab.Place(bad, 0) },
		"Bind":     func() { fab.Bind(bad, func(*Packet) {}) },
		"Send src": func() { fab.Send(bad, 0, &Packet{}) },
		"Send dst": func() { fab.Send(0, bad, &Packet{}) },
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "below the service id range") {
					t.Errorf("%s(%d): panic %q, want one naming the service id range", name, bad, msg)
				}
			}()
			call()
		}()
	}
	if fab.Placed(bad) {
		t.Errorf("Placed(%d) = true", bad)
	}
}

// TestFabricUnbindCloseOrder kills an endpoint in the middle of a bulk
// flood and checks that its links closed in ascending (src, dst) order.
// Each link of the victim shares one NIC direction with one surviving
// flow; closing the link re-arms that survivor on its NIC's clock, which
// hands it a fresh kernel sequence number.  The survivors are symmetric and finish at the
// same instant, so they complete in the order their partners closed.
func TestFabricUnbindCloseOrder(t *testing.T) {
	const victim = 4
	// The victim's open links, deliberately opened out of order.
	pairs := [][2]int{{7, victim}, {victim, 5}, {1, victim}, {victim, 0}, {6, victim}, {victim, 8}, {2, victim}, {victim, 3}}
	k := sim.New(1)
	net := simnet.New(k, testTopo(9+len(pairs)))
	fab := NewFabric(net)
	for id := 0; id < 9+len(pairs); id++ {
		fab.Place(id, id)
	}
	var order [][2]int
	big := func() *Packet { return &Packet{Kind: KindPayload, VSize: 1e6} }
	for i, pr := range pairs {
		pr, helper := pr, 9+i
		fab.Send(pr[0], pr[1], big())
		// The survivor shares the non-victim end of the link: that end's
		// transmit side for an inbound link, its receive side otherwise.
		from, to := pr[0], helper
		if pr[0] == victim {
			from, to = helper, pr[1]
		}
		fab.Bind(to, func(p *Packet) {
			if p.Src == from {
				order = append(order, pr)
			}
		})
		fab.Send(from, to, big())
	}
	k.After(time.Millisecond, func() { fab.Unbind(victim) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := append([][2]int(nil), pairs...)
	sort.Slice(want, func(i, j int) bool {
		if want[i][0] != want[j][0] {
			return want[i][0] < want[j][0]
		}
		return want[i][1] < want[j][1]
	})
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("survivors did not complete in ascending (src, dst) order of their partner links:\n  got  %v\n  want %v", order, want)
	}
}

// TestFabricNewPairAllocatesNothing is the marker flood's cost per ordered
// pair: sending one marker on a pair that never carried a payload
// allocates nothing of its own and opens no channel.  The marker is
// posted on the node's transmit horizon, its delivery is a lane record
// and its release a key (the sender's post log extends one entry across
// the 100 pairs counted here); there is no
// delivery closure, no release event, and no packet: the marker travels
// inline as a WireMsg and the caller's literal stays on its stack.
func TestFabricNewPairAllocatesNothing(t *testing.T) {
	const runs, peers = 100, 102 // AllocsPerRun makes one warm-up call
	k := sim.New(1)
	fab := NewFabric(simnet.New(k, testTopo(peers+1)))
	delivered := 0
	for id := 0; id <= peers; id++ {
		fab.Place(id, id)
		fab.Bind(id, func(*Packet) { delivered++ })
	}
	var allocs float64
	k.Go("sender", func(p *sim.Proc) {
		// The first send sizes the sender's post log and the node's lanes.
		fab.Send(0, 1, &Packet{Kind: KindMarker, Wave: 1})
		p.Advance(time.Millisecond)
		dst := 1
		allocs = testing.AllocsPerRun(runs, func() {
			dst++
			fab.Send(0, dst, &Packet{Kind: KindMarker, Wave: 1})
			p.Advance(time.Millisecond) // transmitted and delivered
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != peers {
		t.Fatalf("delivered %d of %d markers", delivered, peers)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per new pair and marker, want 0", allocs)
	}
	for _, pair := range openChans(fab) {
		t.Errorf("a marker opened the channel %d->%d", pair[0], pair[1])
	}
}

// TestMarkerOnOpenPairAllocatesNothing: once a pair has carried a marker
// (posted: markers open no channel), a marker to a synchronous-profile
// engine allocates nothing on its whole
// way — the lane records, the inbox that holds it while the rank computes,
// and the filter that consumes it at the next MPI call, which is lent the
// marker rebuilt in the engine's own Packet.
func TestMarkerOnOpenPairAllocatesNothing(t *testing.T) {
	k := sim.New(1)
	fab := NewFabric(simnet.New(k, testTopo(2)))
	fab.Place(0, 0)
	fab.Place(1, 1)
	var seen, queued int
	var allocs float64
	k.Go("rank0", func(lp *sim.Proc) {
		e := NewEngine(0, 1, lp, Profile{Name: "sync"}, fab)
		e.SetFilter(markerCounter{&seen})
		marker := func() {
			fab.Send(1, 0, &Packet{Kind: KindMarker, Wave: 3, SpanID: 7})
			e.Compute(time.Millisecond) // it arrives mid-computation
			queued += e.inbox.Len()
			e.enterOp() // the next MPI call runs it through the filter
			e.exitOp()
		}
		marker() // sizes the lanes, the post log and the inbox's first segment
		allocs = testing.AllocsPerRun(100, marker)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 102 || queued != 102 {
		t.Fatalf("filter saw %d of 102 markers, %d of them from the inbox", seen, queued)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per marker on an open pair, want 0", allocs)
	}
}

// markerCounter consumes wave-3 markers from endpoint 1 with span 7, the
// fields an inline WireMsg carries.
type markerCounter struct{ n *int }

func (f markerCounter) OutPayload(*Packet) bool { return true }
func (f markerCounter) InPacket(p *Packet) bool {
	if p.Kind == KindMarker && p.Src == 1 && p.Dst == 0 && p.Wave == 3 && p.SpanID == 7 {
		*f.n++
		return false
	}
	return true
}

func TestFinalizeKeepsProgressAlive(t *testing.T) {
	k := sim.New(1)
	w := NewWorld(k, testTopo(2), Profile{Name: "sync"}, 2, 1)
	var lateSeen bool
	err := w.Run(func(e *Engine) {
		if e.Rank() == 0 {
			// Finish immediately, then stay responsive: a marker-like
			// packet arriving later must still reach the filter even
			// though this rank makes no more MPI calls.
			e.SetFilter(probeFilter{&lateSeen})
			e.Finalize()
			e.lp.Advance(time.Second)
		} else {
			e.Compute(500 * time.Millisecond)
			e.fab.Send(1, 0, &Packet{Kind: KindMarker, Wave: 1})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lateSeen {
		t.Fatal("finalized engine did not process a late protocol packet")
	}
}

type probeFilter struct{ seen *bool }

func (f probeFilter) OutPayload(*Packet) bool { return true }
func (f probeFilter) InPacket(p *Packet) bool {
	if p.Kind == KindMarker {
		*f.seen = true
		return false
	}
	return true
}
