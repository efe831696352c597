package simnet

import (
	"fmt"
	"testing"
	"time"

	"ftckpt/internal/sim"
)

func benchTopo() Topology {
	return Topology{Clusters: []ClusterSpec{{
		Name: "bench", Nodes: 4, NICBW: 100 * float64(MB), Latency: 50 * time.Microsecond,
	}}}
}

// BenchmarkChannelSmall measures the small-message fast path: b.N
// back-to-back sub-cutoff messages through one FIFO channel, including
// their delivery events.  It and BenchmarkChannelBulk open their channels
// with Network.NewChannel, as the benchmark's simnet probes do.
func BenchmarkChannelSmall(b *testing.B) {
	b.ReportAllocs()
	k := sim.New(1)
	n := New(k, benchTopo())
	got := 0
	ch := n.NewChannel(0, 1, func(payload any) { got++ })
	k.After(0, func() {
		for i := 0; i < b.N; i++ {
			ch.Send(i, 512)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// BenchmarkChannelBulk measures the fluid-flow path: b.N above-cutoff
// messages on one channel while a competing channel keeps the shared NIC
// busy, so every completion changes a neighbour's clock.  The payload is
// boxed once, so what allocates per message is the path itself: nothing,
// since each channel reuses its one Flow and its deliveries ride a lane.
func BenchmarkChannelBulk(b *testing.B) {
	b.ReportAllocs()
	k := sim.New(1)
	n := New(k, benchTopo())
	got := 0
	ch := n.NewChannel(0, 1, func(payload any) { got++ })
	rival := n.NewChannel(0, 2, func(payload any) {})
	var payload any = "bulk"
	k.After(0, func() {
		for i := 0; i < b.N; i++ {
			ch.Send(payload, 64*KB)
			rival.Send(payload, 64*KB)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// BenchmarkFlows measures raw StartFlow churn: pairs of competing bulk
// flows started back-to-back, exercising join and leave.
func BenchmarkFlows(b *testing.B) {
	b.ReportAllocs()
	k := sim.New(1)
	n := New(k, benchTopo())
	done := 0
	var start func()
	start = func() {
		n.StartFlow(0, 1, 256*KB, func() {
			done++
			if done < b.N {
				start()
			}
		})
		n.StartFlow(2, 1, 128*KB, nil)
	}
	k.After(0, start)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// churn starts F long flows into node 0's receive NIC and then passes
// shorts+1 short flows through it, one at a time: each starts when the one
// before it is delivered, and the run stops after the last.  started runs
// just before the first short flow.  churn returns the network and the
// kernel's counts as of that moment.
func churn(k *sim.Kernel, F, shorts int, started func()) (n *Network, before *sim.Stats) {
	n = New(k, Topology{Clusters: []ClusterSpec{{
		Name: "churn", Nodes: F + 2, NICBW: 100 * float64(MB), Latency: 50 * time.Microsecond,
	}}})
	before = new(sim.Stats)
	done := 0
	var next func(any)
	next = func(any) {
		if done++; done <= shorts {
			n.StartFlowArg(new(Flow), F+1, 0, 64*KB, 0, next, nil)
		} else {
			k.Stop(nil)
		}
	}
	k.After(0, func() {
		for i := 1; i <= F; i++ {
			n.StartFlow(i, 0, 1<<40, nil) // outlasts the run
		}
		*before = k.Stats()
		started()
		n.StartFlowArg(new(Flow), F+1, 0, 64*KB, 0, next, nil)
	})
	return n, before
}

// BenchmarkFlowChurn measures a flow change on a loaded resource: F long
// flows share node 0's receive NIC while b.N short flows, one at a time,
// arrive on it and leave.  Each arrival and departure changes the NIC's
// clock once, so the cost per change should not grow with F.  It reports
// ns per flow change (two per short flow) and the bytes each short flow
// allocates: its Flow.
func BenchmarkFlowChurn(b *testing.B) {
	for _, F := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("F=%d", F), func(b *testing.B) {
			b.ReportAllocs()
			k := sim.New(1)
			churn(k, F, b.N, b.ResetTimer)
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/change")
		})
	}
}
