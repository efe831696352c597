package sim

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkKernelEvents is the canonical kernel event benchmark: it keeps a
// population of 1024 pending timers (a realistic heap depth for an NP=256
// job) and measures the cost of one schedule+dispatch cycle.  The fn is
// shared, so every allocation charged to an op comes from the kernel's own
// bookkeeping — what bench/ records as sim.event_allocs.
func BenchmarkKernelEvents(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	const population = 1024
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			k.After(Time(1+k.Rand().Intn(1000))*time.Microsecond, tick)
		}
	}
	for i := 0; i < population && remaining > 0; i++ {
		remaining--
		k.After(Time(1+k.Rand().Intn(1000))*time.Microsecond, tick)
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelCancel measures schedule+cancel (the Advance fast path
// exercises this on every timer that is outlived by its LP).
func BenchmarkKernelCancel(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	fn := func() {}
	n := b.N
	k.After(0, func() {})
	b.ResetTimer()
	for i := 0; i < n; i++ {
		id := k.At(Time(i)*time.Microsecond, fn)
		if !k.Cancel(id) {
			b.Fatal("cancel failed")
		}
	}
}

// BenchmarkAdvance measures the LP park/wake round trip: one logical
// process advancing virtual time b.N times — a coroutine switch out and one
// back in plus a timer schedule/fire per op.  This is the dominant cost of
// every compute step in a simulated MPI run.
func BenchmarkAdvance(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	k.Go("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCondPingPong measures two LPs alternating through a pair of
// condition variables — the blocking-receive hot path of the MPI engine.
func BenchmarkCondPingPong(b *testing.B) {
	b.ReportAllocs()
	k := New(1)
	a, bb := NewCond(k), NewCond(k)
	turn := 0
	k.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			for turn != 0 {
				a.Wait(p)
			}
			turn = 1
			bb.Signal()
		}
	})
	k.Go("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			for turn != 1 {
				bb.Wait(p)
			}
			turn = 0
			a.Signal()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// burstRecord is the size of simnet's fast-path delivery record: a
// pointer, an interface payload and a byte count.
type burstRecord struct {
	c       *int
	payload any
	size    int64
}

// BenchmarkLaneBurst measures the lane path: 1 M entries per op flow
// through one lane kept 1 024 deep, each fired entry appending the next —
// a NIC working through a marker flood.  The records ride in the lane by
// value, so a steady lane allocates nothing: B/entry and allocs/entry
// only carry the queue's segment growth, amortised over the run.
func BenchmarkLaneBurst(b *testing.B) {
	b.ReportAllocs()
	const perOp, depth = 1 << 20, 1024
	k := New(1)
	total := b.N * perOp
	var payload any = "marker"
	appended := 0
	var l *Lane[burstRecord]
	appendOne := func() {
		l.At(Time(appended), burstRecord{payload: payload, size: int64(appended)})
		appended++
	}
	l = NewLane(k, func(r burstRecord) {
		if appended < total {
			appendOne()
		}
	})
	for appended < depth && appended < total {
		appendOne()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	entries := float64(total)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/entries, "ns/entry")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/entries, "B/entry")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/entries, "allocs/entry")
}

// BenchmarkSpawn measures starting and finishing one LP, in kernels of
// 1 024 LPs that each yield once — the launch/teardown cost a small
// simulation pays per rank, and what bench/ records as sim.lp_spawn_us.
func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	const lps = 1024
	for left := b.N; left > 0; left -= lps {
		k := New(1)
		for i := 0; i < min(lps, left); i++ {
			k.Go("lp", func(p *Proc) { p.Yield() })
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
