package simnet

import (
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
// their delivery events.
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
// busy, so every completion reschedules a neighbour.  The payload is boxed
// once, so what allocates per message is the path itself: nothing, since
// each channel reuses its one Flow and its deliveries ride a lane.
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
// flows started back-to-back, exercising attach/detach/reschedule.
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

// BenchmarkFlowRearm measures the re-timer: F long flows share node 0's
// receive NIC while b.N short flows, one at a time, arrive on it and leave,
// so every arrival and departure re-arms all F completions in place.  It
// reports ns per re-arm (a re-arm counts as one cancelled event) and the
// bytes each short flow allocates: its Flow.
func BenchmarkFlowRearm(b *testing.B) {
	const F = 64
	b.ReportAllocs()
	k := sim.New(1)
	n := New(k, Topology{Clusters: []ClusterSpec{{
		Name: "rearm", Nodes: F + 2, NICBW: 100 * float64(MB), Latency: 50 * time.Microsecond,
	}}})
	done := 0
	var next func(any)
	next = func(any) {
		if done++; done <= b.N {
			n.StartFlowArg(F+1, 0, 64*KB, 0, next, nil)
		} else {
			k.Stop(nil)
		}
	}
	var start sim.Stats
	k.After(0, func() {
		for i := 1; i <= F; i++ {
			n.StartFlow(i, 0, 1<<50, nil) // outlasts the run
		}
		start = k.Stats()
		b.ResetTimer()
		n.StartFlowArg(F+1, 0, 64*KB, 0, next, nil)
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if rearms := k.Stats().Cancelled - start.Cancelled; rearms > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rearms), "ns/rearm")
	}
}
