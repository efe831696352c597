package mpi

import (
	"fmt"
	"reflect"
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
	fab.Send(0, 1, &Packet{Kind: KindPayload, Tag: 1})
	fab.Send(0, 1, &Packet{Kind: KindPayload, Tag: 1})
	k.After(time.Millisecond, func() {
		fab.Unbind(1)
		bind()
		fab.Send(0, 1, &Packet{Kind: KindPayload, Tag: 1})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two deliveries pre-reset (seq 1,2), one post-reset (seq 1 again:
	// the channel was recreated, as after a reconnect).
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 1 {
		t.Fatalf("seqs %v", seqs)
	}
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
// pair: opening a link and sending one marker on it allocates nothing of
// its own.  The Chan is a slot of a 64-channel chunk (the 100 pairs counted
// here open one chunk between them, which AllocsPerRun's integer mean
// rounds to 0 per pair); there is no
// delivery closure per channel, no backlog or flow state for a channel
// that never backs up, no release event for a channel without a backlog,
// and no packet: the marker travels inline as a WireMsg and the caller's
// literal stays on its stack.
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
		// The first send sizes the sender's link row and the node's lanes.
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
}

// TestMarkerOnOpenPairAllocatesNothing: once a pair's link is open, a
// marker to a synchronous-profile engine allocates nothing on its whole
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
		marker() // opens the link and the inbox's first segment
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
