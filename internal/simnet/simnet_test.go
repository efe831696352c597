package simnet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"ftckpt/internal/sim"
)

// lan builds a single 8-node cluster: 100 MB/s NICs, 50µs latency.
func lan(k *sim.Kernel) *Network {
	return New(k, Topology{Clusters: []ClusterSpec{{
		Name: "lan", Nodes: 8, NICBW: 100e6, Latency: 50 * time.Microsecond,
	}}})
}

// grid builds two 4-node clusters joined by a 5ms / 50 MB/s WAN.
func grid(k *sim.Kernel) *Network {
	return New(k, Topology{
		Clusters: []ClusterSpec{
			{Name: "a", Nodes: 4, NICBW: 100e6, Latency: 50 * time.Microsecond},
			{Name: "b", Nodes: 4, NICBW: 100e6, Latency: 50 * time.Microsecond},
		},
		WanLatency: 5 * time.Millisecond,
		WanBW:      50e6,
	})
}

// msg is what the tests send: the index of the channel it travels on —
// a Wire has one deliver callback for all its channels — and a value.
type msg struct{ ch, v int }

// testWire is a Wire of msgs that records every delivery under its
// channel's index: got[i] holds channel i's values, at[i] their arrival
// times.
type testWire struct {
	*Wire[msg]
	chans []*Chan[msg]
	got   [][]int
	at    [][]sim.Time
}

func newTestWire(n *Network) *testWire {
	w := &testWire{}
	w.Wire = NewWire(n, func(m msg) {
		w.got[m.ch] = append(w.got[m.ch], m.v)
		w.at[m.ch] = append(w.at[m.ch], n.k.Now())
	})
	return w
}

// open opens a channel from src to dst and returns its index.
func (w *testWire) open(src, dst int) int {
	w.chans = append(w.chans, w.NewChan(src, dst))
	w.got = append(w.got, nil)
	w.at = append(w.at, nil)
	return len(w.chans) - 1
}

// send sends value v of size bytes on channel ch.
func (w *testWire) send(ch, v int, size Bytes) { w.chans[ch].Send(msg{ch, v}, size) }

func within(t *testing.T, got, want, tol time.Duration, what string) {
	t.Helper()
	d := got - want
	if d < 0 {
		d = -d
	}
	if d > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestSingleFlowTime(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	var done sim.Time
	// 100 MB at 100 MB/s = 1s + 50µs latency.
	n.StartFlow(0, 1, 100e6, func() { done = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	within(t, done, time.Second+50*time.Microsecond, time.Millisecond, "flow completion")
}

// TestStartFlowArg: fn(arg) runs exactly where StartFlow's onDone does —
// the two are one path — the flow is the one the caller handed in, and a
// nil completion is still allowed.
func TestStartFlowArg(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	type landing struct {
		at   sim.Time
		flow Flow
	}
	var byFunc sim.Time
	rec := &landing{}
	n.StartFlow(0, 1, 50e6, func() { byFunc = k.Now() })
	if f := n.StartFlowArg(&rec.flow, 2, 3, 50e6, 0, func(x any) { x.(*landing).at = k.Now() }, rec); f != &rec.flow {
		t.Fatal("StartFlowArg returned a flow other than the one it was handed")
	}
	n.StartFlowCapped(0, 3, 1e3, 0, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.at == 0 || rec.at != byFunc {
		t.Fatalf("StartFlowArg completed at %v, StartFlow at %v", rec.at, byFunc)
	}
}

func TestTwoFlowsShareTxNIC(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	var d1, d2 sim.Time
	n.StartFlow(0, 1, 50e6, func() { d1 = k.Now() })
	n.StartFlow(0, 2, 50e6, func() { d2 = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Both share node 0's tx: each runs at 50 MB/s, finishing ~1s.
	within(t, d1, time.Second, 2*time.Millisecond, "flow 1")
	within(t, d2, time.Second, 2*time.Millisecond, "flow 2")
}

func TestFlowDepartureSpeedsUpSurvivor(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	var dBig sim.Time
	n.StartFlow(0, 1, 100e6, func() { dBig = k.Now() })
	n.StartFlow(0, 2, 25e6, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Phase 1: both at 50 MB/s until the small one moves 25MB (0.5s).
	// Phase 2: big one has 75MB left at 100 MB/s = 0.75s.  Total 1.25s.
	within(t, dBig, 1250*time.Millisecond, 3*time.Millisecond, "big flow")
}

func TestCancelFreesBandwidth(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	var dBig sim.Time
	n.StartFlow(0, 1, 100e6, func() { dBig = k.Now() })
	f2 := n.StartFlow(0, 2, 1e9, func() { t.Error("cancelled flow delivered") })
	k.After(500*time.Millisecond, f2.Cancel)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 0.5s at 50 MB/s moves 25MB; remaining 75MB at 100 MB/s = 0.75s.
	within(t, dBig, 1250*time.Millisecond, 3*time.Millisecond, "big flow after cancel")
}

func TestRxNICContention(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	var d1 sim.Time
	// Two senders into one receiver: rx NIC is the bottleneck.
	n.StartFlow(0, 2, 50e6, func() { d1 = k.Now() })
	n.StartFlow(1, 2, 50e6, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	within(t, d1, time.Second, 2*time.Millisecond, "rx-shared flow")
}

func TestWanLatencyAndBandwidth(t *testing.T) {
	k := sim.New(1)
	n := grid(k)
	if got := n.Latency(0, 5); got != 5*time.Millisecond {
		t.Fatalf("inter-cluster latency %v", got)
	}
	if got := n.Latency(0, 1); got != 50*time.Microsecond {
		t.Fatalf("intra-cluster latency %v", got)
	}
	var done sim.Time
	n.StartFlow(0, 5, 50e6, func() { done = k.Now() }) // 50MB over 50MB/s WAN
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	within(t, done, time.Second+5*time.Millisecond, 2*time.Millisecond, "wan flow")
}

func TestWanUplinkShared(t *testing.T) {
	k := sim.New(1)
	n := grid(k)
	var d1 sim.Time
	// Two flows from different cluster-a nodes share cluster a's uplink.
	n.StartFlow(0, 4, 25e6, func() { d1 = k.Now() })
	n.StartFlow(1, 5, 25e6, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	within(t, d1, time.Second+5*time.Millisecond, 3*time.Millisecond, "shared uplink")
}

func TestWanFlowCapLimitsSingleStream(t *testing.T) {
	k := sim.New(1)
	topo := Topology{
		Clusters: []ClusterSpec{
			{Name: "a", Nodes: 2, NICBW: 100e6, Latency: 50 * time.Microsecond},
			{Name: "b", Nodes: 2, NICBW: 100e6, Latency: 50 * time.Microsecond},
		},
		WanLatency: 5 * time.Millisecond,
		WanBW:      50e6,
		WanFlowCap: 5e6,
	}
	n := New(k, topo)
	var one, agg sim.Time
	// A single capped stream crawls at the flow cap...
	n.StartFlow(0, 2, 5e6, func() { one = k.Now() })
	// ...while many parallel streams share the uplink capacity.
	remaining := 8
	for i := 0; i < 8; i++ {
		n.StartFlow(1, 3, 5e6, func() {
			remaining--
			if remaining == 0 {
				agg = k.Now()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	within(t, one, time.Second+5*time.Millisecond, 10*time.Millisecond, "capped single stream")
	// 8×5MB over a 50MB/s uplink: capacity-bound at ~0.9s (the first
	// stream holds 5MB/s of it), far better than 8 serial capped streams.
	if agg > 1200*time.Millisecond {
		t.Fatalf("aggregate took %v; uplink capacity unused", agg)
	}
}

func TestCappedChannelMessage(t *testing.T) {
	k := sim.New(1)
	topo := Topology{
		Clusters: []ClusterSpec{
			{Name: "a", Nodes: 1, NICBW: 100e6, Latency: 50 * time.Microsecond},
			{Name: "b", Nodes: 1, NICBW: 100e6, Latency: 50 * time.Microsecond},
		},
		WanLatency: 5 * time.Millisecond,
		WanBW:      50e6,
		WanFlowCap: 5e6,
	}
	w := newTestWire(New(k, topo))
	ch := w.open(0, 1)
	w.send(ch, 0, 5e6) // above smallCutoff → fluid, capped
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(w.at[ch]) != 1 {
		t.Fatalf("delivered %d, want 1", len(w.at[ch]))
	}
	within(t, w.at[ch][0], time.Second+5*time.Millisecond, 10*time.Millisecond, "capped channel message")
}

func TestLoopbackLatencyOnly(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	var done sim.Time
	n.StartFlow(3, 3, 1e9, func() { done = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	within(t, done, 50*time.Microsecond, time.Microsecond, "loopback")
}

// TestOwnClockEvents follows the completion events of flows on clocks of
// their own (Network.own): a loopback flow cancelled at its start instant
// and one that completes, a WAN flow whose cap binds cancelled
// mid-transfer, and a capped LAN flow that moves onto its receive NIC's
// clock when a rival halves the NIC's share and back onto its own when the
// rival leaves.  Each cancel counts one cancelled event, no cancelled flow
// completes, the capped flow holds an own event exactly while it rides its
// own clock and ends when that clock says, and after Run no flow holds an
// event.
func TestOwnClockEvents(t *testing.T) {
	k := sim.New(1)
	n := New(k, Topology{
		Clusters: []ClusterSpec{
			{Name: "a", Nodes: 4, NICBW: 100e6, Latency: 50 * time.Microsecond},
			{Name: "b", Nodes: 4, NICBW: 100e6, Latency: 50 * time.Microsecond},
		},
		WanLatency: 5 * time.Millisecond,
		WanBW:      50e6,
		WanFlowCap: 5e6,
	})
	cancelled := func(what string) func() {
		return func() { t.Errorf("cancelled %s flow completed", what) }
	}
	// cancel cancels f and checks that it counted one cancelled event.
	cancel := func(f *Flow, what string) {
		before := k.Stats().Cancelled
		f.Cancel()
		if got := k.Stats().Cancelled - before; got != 1 {
			t.Errorf("cancelling the %s flow counted %d cancelled events, want 1", what, got)
		}
		if _, ok := n.own[f]; ok {
			t.Errorf("the cancelled %s flow still holds its own event", what)
		}
	}
	var wan, capped *Flow
	var loopDone, cappedDone, rivalDone sim.Time
	// ownAt checks, at t0, whether the capped flow rides its own clock.
	ownAt := func(t0 sim.Time, want bool) {
		k.At(t0, func() {
			_, held := n.own[capped]
			if rides := capped.ride == ownClock; rides != want || held != want {
				t.Errorf("at %v the capped flow rides its own clock: %v, holds an own event: %v; want %v",
					t0, rides, held, want)
			}
		})
	}
	k.At(0, func() {
		cancel(n.StartFlow(3, 3, 1e6, cancelled("loopback")), "loopback")
		n.StartFlow(3, 3, 1e6, func() { loopDone = k.Now() })
		wan = n.StartFlow(0, 4, 5e6, cancelled("WAN")) // 1 s at the 5 MB/s cap
		// 60 MB/s caps the flow below its NICs' 100 MB/s: 1 s alone.
		capped = n.StartFlowCapped(1, 2, 60e6, 60e6, func() { cappedDone = k.Now() })
	})
	k.At(50*time.Millisecond, func() { cancel(wan, "WAN") })
	ownAt(90*time.Millisecond, true)
	// The rival halves node 2's receive share to 50 MB/s for 200 ms.
	k.At(100*time.Millisecond, func() { n.StartFlow(3, 2, 10e6, func() { rivalDone = k.Now() }) })
	ownAt(200*time.Millisecond, false)
	ownAt(400*time.Millisecond, true)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	within(t, loopDone, n.Latency(3, 3), 0, "loopback")
	lat := n.Latency(1, 2)
	within(t, rivalDone, 300*time.Millisecond+lat, time.Microsecond, "rival")
	// 6 MB alone, 10 MB at 50 MB/s, then 44 MB at 60 MB/s.
	within(t, cappedDone, 300*time.Millisecond+733_333_333+lat, time.Microsecond, "capped flow")
	if len(n.own) != 0 {
		t.Errorf("%d flows still hold an own event after Run", len(n.own))
	}
	res := append([]*resource(nil), n.wanUp...)
	for _, nd := range n.nodes {
		res = append(res, nd.tx, nd.rx)
	}
	for _, r := range res {
		if r.armed != nil {
			t.Errorf("%s still has an armed rider after Run", r.name)
		}
	}
	if st := k.Stats(); st.Scheduled != st.Fired+st.Cancelled {
		t.Errorf("events left over: %+v", st)
	}
}

func TestChannelFIFO(t *testing.T) {
	k := sim.New(1)
	w := newTestWire(lan(k))
	ch := w.open(0, 1)
	// A large message followed by small ones: without serialization the
	// small ones would overtake.
	w.send(ch, 0, 50e6)
	w.send(ch, 1, 1)
	w.send(ch, 2, 1)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := w.got[ch]
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery order %v", got)
		}
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d, want 3", len(got))
	}
}

func TestChannelPipelines(t *testing.T) {
	k := sim.New(1)
	w := newTestWire(lan(k))
	ch := w.open(0, 1)
	for i := 0; i < 10; i++ {
		w.send(ch, i, 10e6) // 10 × 10MB = 1s of transmission
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(w.at[ch]) != 10 {
		t.Fatalf("delivered %d", len(w.at[ch]))
	}
	// Back-to-back: total ≈ N·size/bw + one latency, NOT N·(transfer+latency).
	within(t, w.at[ch][9], time.Second+50*time.Microsecond, 5*time.Millisecond, "pipelined channel")
}

func TestChannelClose(t *testing.T) {
	k := sim.New(1)
	w := newTestWire(lan(k))
	i := w.open(0, 1)
	ch := w.chans[i]
	w.send(i, 0, 50e6)
	w.send(i, 1, 1)
	k.After(time.Millisecond, ch.Close)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(w.got[i]) != 0 {
		t.Fatalf("delivered %d messages on closed channel", len(w.got[i]))
	}
	// A send after close is a silent drop: it queues nothing and
	// schedules nothing, so nothing can be delivered.
	before := k.Stats().Scheduled
	w.send(i, 2, 1)
	w.send(i, 3, 50e6)
	if ch.side.queue.Len() != 0 || k.Stats().Scheduled != before {
		t.Fatalf("a send after close left %d queued, %d events scheduled",
			ch.side.queue.Len(), k.Stats().Scheduled-before)
	}
}

func TestCrossChannelsIndependent(t *testing.T) {
	k := sim.New(1)
	w := newTestWire(lan(k))
	big, small := w.open(0, 1), w.open(2, 3)
	w.send(big, 0, 100e6)
	w.send(small, 0, 1000)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d := w.at[small][0]; d > time.Millisecond {
		t.Fatalf("independent channel delayed: %v", d)
	}
}

// TestConservation: all bytes sent over random flow sets are delivered, and
// every flow's completion time is at least its unloaded lower bound.
func TestConservation(t *testing.T) {
	f := func(seed int64) bool {
		k := sim.New(seed)
		n := lan(k)
		rng := rand.New(rand.NewSource(seed))
		var want Bytes
		nf := 2 + rng.Intn(10)
		ok := true
		for i := 0; i < nf; i++ {
			src := rng.Intn(8)
			dst := rng.Intn(8)
			size := Bytes(1 + rng.Intn(20e6))
			want += size
			lower := k.Now() + n.Latency(src, dst) +
				sim.Time(float64(size)/n.Bandwidth(src, dst)*float64(time.Second))
			if src == dst {
				lower = k.Now() + n.Latency(src, dst)
			}
			n.StartFlow(src, dst, size, func() {
				if k.Now() < lower-time.Microsecond {
					ok = false
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return ok && n.BytesMoved == want && n.FlowsDone == nf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestChannelFIFOProperty: arbitrary message size sequences are always
// delivered in order.
func TestChannelFIFOProperty(t *testing.T) {
	f := func(seed int64) bool {
		k := sim.New(seed)
		w := newTestWire(lan(k))
		ch := w.open(0, 1)
		rng := rand.New(rand.NewSource(seed))
		nm := 1 + rng.Intn(30)
		for i := 0; i < nm; i++ {
			w.send(ch, i, Bytes(rng.Intn(5e6)))
		}
		if err := k.Run(); err != nil {
			return false
		}
		got := w.got[ch]
		if len(got) != nm {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid topology")
		}
	}()
	New(sim.New(1), Topology{Clusters: []ClusterSpec{{Name: "x", Nodes: 0}}})
}

func TestTotalNodes(t *testing.T) {
	topo := Topology{Clusters: []ClusterSpec{{Nodes: 3, NICBW: 1, Latency: 1}, {Nodes: 5, NICBW: 1, Latency: 1}}}
	if topo.TotalNodes() != 8 {
		t.Fatalf("TotalNodes = %d", topo.TotalNodes())
	}
}

func ExampleNetwork_StartFlow() {
	k := sim.New(0)
	n := New(k, Topology{Clusters: []ClusterSpec{{Name: "c", Nodes: 2, NICBW: 1e6, Latency: time.Millisecond}}})
	n.StartFlow(0, 1, 1e6, func() {
		fmt.Println("delivered at", k.Now())
	})
	_ = k.Run()
	// Output: delivered at 1.001s
}

// TestBackloggedChannelReusesQueue keeps a channel backlogged for good: a
// new message joins it every time one clears the NIC, so two or three are
// always waiting and its queue never empties.  Such a channel must still
// cycle through the two segments a sliding window needs — a queue that
// only rewinds once drained grows by a slot per message instead, for as
// long as the backlog lasts.
func TestBackloggedChannelReusesQueue(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	const size = 512
	delivered := 0
	ch := NewWire(n, func(msg) { delivered++ }).NewChan(0, 1)
	svc := sim.Time(float64(size) / n.Bandwidth(0, 1) * 1e9)
	var allocs float64
	k.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			ch.Send(msg{}, size)
		}
		messages := func() {
			for i := 0; i < 20_000; i++ {
				p.Advance(svc)
				ch.Send(msg{}, size)
			}
		}
		// The warm-up call sends the first 20 000, the counted one
		// another 20 000.
		allocs = testing.AllocsPerRun(1, messages)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 40_004 {
		t.Fatalf("delivered %d of 40004 messages", delivered)
	}
	if allocs != 0 {
		t.Errorf("%v allocations over 20 000 messages through a backlogged channel", allocs)
	}
	if s := ch.side.queue.Segments(); s > 2 {
		t.Errorf("the queue grew to %d segments at a backlog of three, want <= 2", s)
	}
}

// TestSmallBurstHoldsThreeHeapSlots floods small messages from one node
// over many channels, to its own cluster, across the WAN and to itself.
// Whatever the burst's size, the node's three lanes are all the heap sees;
// every message still arrives, in order on its channel, one latency of its
// class after it cleared the sender's NIC.
func TestSmallBurstHoldsThreeHeapSlots(t *testing.T) {
	k := sim.New(1)
	n := grid(k)
	w := newTestWire(n)
	const perChannel = 50
	dsts := []int{0, 1, 2, 3, 4, 5, 6, 7} // 0 is loopback, 4..7 are across the WAN
	for _, d := range dsts {
		w.open(0, d)
	}
	for m := 0; m < perChannel; m++ {
		for ch := range dsts {
			w.send(ch, m, 64)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := k.Stats(); st.HeapMax > 3 || st.LaneMax < len(dsts) {
		t.Errorf("heap high-water %d (want <= 3 lanes), lane high-water %d (want >= %d)", st.HeapMax, st.LaneMax, len(dsts))
	}
	for i, d := range dsts {
		if len(w.got[i]) != perChannel {
			t.Fatalf("channel 0->%d delivered %d of %d", d, len(w.got[i]), perChannel)
		}
		for m, v := range w.got[i] {
			if v != m {
				t.Fatalf("channel 0->%d delivered %v: not FIFO", d, w.got[i])
			}
		}
		if first := w.at[i][0]; first < n.Latency(0, d) {
			t.Errorf("channel 0->%d first delivery at %v, before one latency %v", d, first, n.Latency(0, d))
		}
	}
}

// TestBulkStreamAllocatesNothing sends a steady stream of bulk messages on
// one channel: the channel's one Flow carries every transmission and the
// delivery lane every arrival, so past warm-up a message costs nothing.
func TestBulkStreamAllocatesNothing(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	const size = 64 * KB
	delivered := 0
	ch := NewWire(n, func(msg) { delivered++ }).NewChan(0, 1)
	svc := sim.Time(float64(size) / n.Bandwidth(0, 1) * 1e9)
	var allocs float64
	k.Go("sender", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(2_000, func() {
			ch.Send(msg{}, size)
			p.Advance(svc)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2_001 {
		t.Fatalf("delivered %d of 2001 messages", delivered)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per bulk message on one channel", allocs)
	}
}

// TestChannelCloseDropsBulkDelivery closes a channel at two points of its
// one bulk message's life.  While the last byte is still in flight, Close
// cancels the transmission; after it cleared the NIC but before the
// delivery, the delivery is already on a lane and is dropped there because
// the channel is closed.  Either way nothing arrives and nothing is
// counted as moved.
func TestChannelCloseDropsBulkDelivery(t *testing.T) {
	// 1 MB at 100 MB/s leaves the NIC at 10 ms and lands 50 µs later.
	for _, c := range []struct {
		name string
		at   sim.Time
	}{
		{"transmitting", 10*time.Millisecond - time.Microsecond},
		{"delivering", 10*time.Millisecond + 25*time.Microsecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := sim.New(1)
			n := lan(k)
			w := newTestWire(n)
			ch := w.open(0, 1)
			w.send(ch, 0, 1e6)
			k.After(c.at, w.chans[ch].Close)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if delivered := len(w.got[ch]); delivered != 0 || n.FlowsDone != 0 || n.BytesMoved != 0 {
				t.Fatalf("closed channel delivered %d, counted %d flows and %d bytes", delivered, n.FlowsDone, n.BytesMoved)
			}
			if st := k.Stats(); st.Scheduled != st.Fired+st.Cancelled {
				t.Fatalf("events left over: %+v", st)
			}
		})
	}
}

// TestRecordSizes pins the two records simnet keeps most of: a Chan per
// ordered pair of communicating ranks, and a Flow per bulk transfer in
// flight (one per channel that ever sent a bulk message).  A Flow is 136
// bytes: its owning channel, an interface whatever the channel carries,
// shares the field a StartFlowArg completion's argument uses.
// A Chan holds no message, so its size is the same for every T; at 48
// bytes, a chunk of chanChunk of them is an exact malloc size class.
// (mpi's TestRecordSizes pins the WireMsg the fabric's lanes hold.)
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(Flow{}); n > 136 {
		t.Errorf("Flow is %d bytes, want <= 136", n)
	}
	if n := unsafe.Sizeof(Chan[msg]{}); n > 48 {
		t.Errorf("Chan is %d bytes, want <= 48", n)
	}
}

// TestIdleSmallChannelHasNoSideState: a channel that only sends small
// messages, each on an idle channel, neither backs up nor sends bulk, so it
// never allocates the backlog and flow state — a marker flood's channel is
// the Chan record alone — and never needs its release event: each message
// reserves the release key and fires only its delivery.  A backlog or one
// bulk message allocates the side state.
func TestIdleSmallChannelHasNoSideState(t *testing.T) {
	k := sim.New(1)
	w := newTestWire(lan(k))
	idle, backlogged, bulk := w.open(0, 1), w.open(0, 2), w.open(0, 3)
	var unfired uint64
	k.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			w.send(idle, i, smallCutoff-1)
			p.Advance(time.Millisecond) // transmitted and delivered
		}
		// 100 deliveries and 100 wakes fired; 100 release keys did not.
		st := k.Stats()
		unfired = st.Scheduled - st.Fired - st.Cancelled
		w.send(backlogged, 0, 64)
		w.send(backlogged, 1, 64)
		w.send(bulk, 0, smallCutoff)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered := len(w.got[idle]); delivered != 100 {
		t.Fatalf("delivered %d of 100 messages", delivered)
	}
	if unfired != 100 {
		t.Errorf("%d keys drawn and not fired over 100 idle small messages, want 100 (their releases)", unfired)
	}
	if w.chans[idle].side != nil {
		t.Errorf("a channel sending small messages on an idle path allocated its side state")
	}
	if b, u := w.chans[backlogged].side, w.chans[bulk].side; b == nil || u == nil {
		t.Errorf("side state allocated: backlogged %v, bulk %v; want both", b != nil, u != nil)
	}
}

// TestReleaseTie: a small message frees its channel at the key reserved
// for it, (t, s), not merely at time t.  A second message on the channel,
// sent at exactly t by an event ordered before s, finds the channel busy:
// it queues, and starts at (t, s) — after a message another channel of the
// same node sends in that same event, which takes the NIC first.  Sent by
// an event ordered after s, it starts at once, ahead of the other
// channel's.  The node's transmit horizon after that event is 2·svc in
// the first case (the second message still waits) and 3·svc in the
// second; it ends at 3·svc either way.
func TestReleaseTie(t *testing.T) {
	const size = 1000
	for _, before := range []bool{true, false} {
		t.Run(map[bool]string{true: "before", false: "after"}[before], func(t *testing.T) {
			k := sim.New(1)
			n := lan(k)
			w := newTestWire(n)
			a, b := w.open(0, 1), w.open(0, 2)
			svc := sim.Time(float64(size) / n.Bandwidth(0, 1) * 1e9)
			var horizon sim.Time
			second := func() {
				w.send(a, 1, size)
				w.send(b, 0, size)
				horizon = n.nodes[0].smallTxBusy
			}
			if before {
				k.At(svc, second) // drawn before the first message's release key
			}
			k.At(0, func() {
				w.send(a, 0, size) // clears the NIC at svc
				if !before {
					k.At(svc, second) // drawn after it
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			lat := n.Latency(0, 1)
			wantA, wantB, wantHorizon := 2*svc+lat, 3*svc+lat, 3*svc
			if before {
				wantA, wantB, wantHorizon = wantB, wantA, 2*svc
			}
			if len(w.at[a]) != 2 || len(w.at[b]) != 1 {
				t.Fatalf("delivered %d on a and %d on b, want 2 and 1", len(w.at[a]), len(w.at[b]))
			}
			if w.at[a][0] != svc+lat || w.at[a][1] != wantA || w.at[b][0] != wantB {
				t.Errorf("a delivered at %v, b at %v; want a at [%v %v], b at %v",
					w.at[a], w.at[b], svc+lat, wantA, wantB)
			}
			if h := n.nodes[0].smallTxBusy; horizon != wantHorizon || h != 3*svc {
				t.Errorf("transmit horizon %v after the second send, %v at the end; want %v and %v",
					horizon, h, wantHorizon, 3*svc)
			}
		})
	}
}

// TestFlowChurnCancelsLinearly pins what a flow change costs in timers:
// 256 long flows share node 0's receive NIC while N short flows pass
// through it one at a time.  A short flow's arrival moves the NIC clock's
// earliest finisher (one cancel) and its departure re-arms the long flow
// that is earliest again, so the kernel counts at most 2N + c cancelled
// events; settling and re-arming every member of the NIC, as the reference
// solver does, counts about 2·256·N.
func TestFlowChurnCancelsLinearly(t *testing.T) {
	const F, N = 256, 500
	k := sim.New(1)
	n, before := churn(k, F, N, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n.FlowsDone != N+1 {
		t.Fatalf("%d flows delivered, want the %d short ones", n.FlowsDone, N+1)
	}
	if got := k.Stats().Cancelled - before.Cancelled; got > 2*N+4 {
		t.Errorf("%d short flows through %d long ones cancelled %d events, want <= %d", N, F, got, 2*N+4)
	}
}

// TestLongFlowsNeverWrap: a flow too long for sim.Time is due in the far
// future, not at a wrapped-negative instant.  1 024 flows of 2^50 B share
// one 100 MB/s rx NIC, so each would take ≈ 365 years; none may land
// within the first second.
func TestLongFlowsNeverWrap(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	landed := 0
	for i := 0; i < 1024; i++ {
		n.StartFlow(1+i%7, 0, 1<<50, func() { landed++ })
	}
	k.At(time.Second, func() { k.Stop(nil) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if landed != 0 {
		t.Fatalf("%d of 1024 flows of 2^50 B landed within 1 s", landed)
	}
}

// TestCloseHandsBackDroppedMessages: every message a closed channel will
// not deliver reaches the Wire's drop callback once, and none reaches
// deliver.  Close drops the bulk message in transmission and then the
// queue behind it, in order; a small message already on its way is
// dropped when it arrives.  On the open channel beside it nothing is
// dropped.
func TestCloseHandsBackDroppedMessages(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	var delivered, dropped []int
	w := NewWire(n, func(m msg) { delivered = append(delivered, m.v) })
	w.SetDrop(func(m msg) { dropped = append(dropped, m.v) })
	small, bulk, open := w.NewChan(0, 1), w.NewChan(0, 2), w.NewChan(1, 2)
	k.At(0, func() {
		small.Send(msg{v: 1}, 64) // on a lane when Close runs
		bulk.Send(msg{v: 2}, 1<<20)
		bulk.Send(msg{v: 3}, 64)
		bulk.Send(msg{v: 4}, 1<<20)
		open.Send(msg{v: 5}, 1<<20)
		small.Close()
		bulk.Close()
		if want := []int{2, 3, 4}; !slices.Equal(dropped, want) {
			t.Errorf("Close dropped %v, want %v", dropped, want)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 3, 4, 1}; !slices.Equal(dropped, want) {
		t.Errorf("dropped %v, want %v", dropped, want)
	}
	if want := []int{5}; !slices.Equal(delivered, want) {
		t.Errorf("delivered %v, want %v", delivered, want)
	}
}
