package simnet

import (
	"fmt"
	"math/rand"
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
// the two are one path — and a nil completion is still allowed.
func TestStartFlowArg(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	type landing struct{ at sim.Time }
	var byFunc sim.Time
	rec := &landing{}
	n.StartFlow(0, 1, 50e6, func() { byFunc = k.Now() })
	n.StartFlowArg(2, 3, 50e6, 0, func(x any) { x.(*landing).at = k.Now() }, rec)
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
	n := New(k, topo)
	var at sim.Time
	ch := n.NewChannel(0, 1, func(any) { at = k.Now() })
	ch.Send("big", 5e6) // above smallCutoff → fluid, capped
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	within(t, at, time.Second+5*time.Millisecond, 10*time.Millisecond, "capped channel message")
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

func TestChannelFIFO(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	var got []int
	ch := n.NewChannel(0, 1, func(p any) { got = append(got, p.(int)) })
	// A large message followed by small ones: without serialization the
	// small ones would overtake.
	ch.Send(0, 50e6)
	ch.Send(1, 1)
	ch.Send(2, 1)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
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
	n := lan(k)
	count := 0
	var last sim.Time
	ch := n.NewChannel(0, 1, func(p any) { count++; last = k.Now() })
	for i := 0; i < 10; i++ {
		ch.Send(i, 10e6) // 10 × 10MB = 1s of transmission
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("delivered %d", count)
	}
	// Back-to-back: total ≈ N·size/bw + one latency, NOT N·(transfer+latency).
	within(t, last, time.Second+50*time.Microsecond, 5*time.Millisecond, "pipelined channel")
}

func TestChannelClose(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	delivered := 0
	ch := n.NewChannel(0, 1, func(p any) { delivered++ })
	ch.Send("a", 50e6)
	ch.Send("b", 1)
	k.After(time.Millisecond, ch.Close)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("delivered %d messages on closed channel", delivered)
	}
	// A send after close is a silent drop: it queues nothing and
	// schedules nothing, so nothing can be delivered.
	before := k.Stats().Scheduled
	ch.Send("c", 1)
	ch.Send("d", 50e6)
	if ch.busy || ch.queue.Len() != 0 || k.Stats().Scheduled != before {
		t.Fatalf("a send after close left busy=%v, %d queued, %d events scheduled",
			ch.busy, ch.queue.Len(), k.Stats().Scheduled-before)
	}
}

func TestCrossChannelsIndependent(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	var dSmall sim.Time
	chBig := n.NewChannel(0, 1, func(p any) {})
	chSmall := n.NewChannel(2, 3, func(p any) { dSmall = k.Now() })
	chBig.Send("big", 100e6)
	chSmall.Send("small", 1000)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dSmall > time.Millisecond {
		t.Fatalf("independent channel delayed: %v", dSmall)
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
		n := lan(k)
		rng := rand.New(rand.NewSource(seed))
		var got []int
		ch := n.NewChannel(0, 1, func(p any) { got = append(got, p.(int)) })
		nm := 1 + rng.Intn(30)
		for i := 0; i < nm; i++ {
			ch.Send(i, Bytes(rng.Intn(5e6)))
		}
		if err := k.Run(); err != nil {
			return false
		}
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
// cycle through one small array — a queue that only rewinds once drained
// grows by a slot per message instead, for as long as the backlog lasts.
func TestBackloggedChannelReusesQueue(t *testing.T) {
	k := sim.New(1)
	n := lan(k)
	const size = 512
	delivered := 0
	ch := n.NewChannel(0, 1, func(any) { delivered++ })
	svc := sim.Time(float64(size) / n.Bandwidth(0, 1) * 1e9)
	var allocs float64
	k.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			ch.Send(nil, size)
		}
		messages := func() {
			for i := 0; i < 20_000; i++ {
				p.Advance(svc)
				ch.Send(nil, size)
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
	if c := ch.queue.Cap(); c > 8 {
		t.Errorf("the queue grew to %d slots at a backlog of three", c)
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
	const perChannel = 50
	dsts := []int{0, 1, 2, 3, 4, 5, 6, 7} // 0 is loopback, 4..7 are across the WAN
	got := make([][]int, len(dsts))
	at := make([][]sim.Time, len(dsts))
	chans := make([]*Channel, len(dsts))
	for i, d := range dsts {
		i := i
		chans[i] = n.NewChannel(0, d, func(p any) {
			got[i] = append(got[i], p.(int))
			at[i] = append(at[i], k.Now())
		})
	}
	for m := 0; m < perChannel; m++ {
		for _, ch := range chans {
			ch.Send(m, 64)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := k.Stats(); st.HeapMax > 3 || st.LaneMax < len(dsts) {
		t.Errorf("heap high-water %d (want <= 3 lanes), lane high-water %d (want >= %d)", st.HeapMax, st.LaneMax, len(dsts))
	}
	for i, d := range dsts {
		if len(got[i]) != perChannel {
			t.Fatalf("channel 0->%d delivered %d of %d", d, len(got[i]), perChannel)
		}
		for m, v := range got[i] {
			if v != m {
				t.Fatalf("channel 0->%d delivered %v: not FIFO", d, got[i])
			}
		}
		if first := at[i][0]; first < n.Latency(0, d) {
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
	ch := n.NewChannel(0, 1, func(any) { delivered++ })
	var payload any = "bulk" // boxed once
	svc := sim.Time(float64(size) / n.Bandwidth(0, 1) * 1e9)
	var allocs float64
	k.Go("sender", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(2_000, func() {
			ch.Send(payload, size)
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
			delivered := 0
			ch := n.NewChannel(0, 1, func(any) { delivered++ })
			ch.Send("big", 1e6)
			k.After(c.at, ch.Close)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if delivered != 0 || n.FlowsDone != 0 || n.BytesMoved != 0 {
				t.Fatalf("closed channel delivered %d, counted %d flows and %d bytes", delivered, n.FlowsDone, n.BytesMoved)
			}
			if st := k.Stats(); st.Scheduled != st.Fired+st.Cancelled {
				t.Fatalf("events left over: %+v", st)
			}
		})
	}
}

// TestRecordSizes pins the two records simnet keeps most of: a Channel per
// ordered pair of communicating ranks, and a Flow per bulk transfer in
// flight (one per channel that ever sent a bulk message).
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(Flow{}); n > 160 {
		t.Errorf("Flow is %d bytes, want <= 160", n)
	}
	if n := unsafe.Sizeof(Channel{}); n > 80 {
		t.Errorf("Channel is %d bytes, want <= 80", n)
	}
}
