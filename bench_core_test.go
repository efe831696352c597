package ftckpt

// Core hot-path benchmarks: one full simulated run per iteration, sized to
// track single-run throughput of the sim/simnet/mpi stack (the binding
// constraint on every figure — see BENCH_core.json for the recorded
// trajectory).  Unlike bench_test.go, which regenerates whole figures,
// BenchmarkRun measures exactly one job per protocol and size, so its
// ns/op and allocs/op are directly comparable across kernel rewrites.
//
// Sizes follow the paper's scaling axis: NP=64 is the paper's cluster
// scale, NP=256 the grid scale, NP=1024 the target the event-queue
// overhaul opens up.  Intervals are sized per NP so every run commits a
// couple of checkpoint waves (smaller jobs run longer in virtual time).
// Vcl at NP=1024 exceeds the paper's ~300-process select() limit, so the
// benchmark removes it with VclProcessLimit — explicitly a what-if run.

import (
	"fmt"
	"testing"
	"time"
)

// benchRunIntervals pick checkpoint intervals yielding a few waves per run.
var benchRunIntervals = map[int]time.Duration{
	64:   8 * time.Second,
	256:  2 * time.Second,
	1024: 400 * time.Millisecond,
}

func benchRunOpts(proto string, np int) Options {
	interval := benchRunIntervals[np]
	if proto == "mlog" && np == 1024 {
		// Mlog checkpoints per process (no global waves): 400ms would
		// mean tens of thousands of local images.  8s keeps the image
		// count in the low thousands, so the run fits a CI bench budget.
		interval = 8 * time.Second
	}
	return Options{
		Workload:        "bt",
		Class:           "A",
		NP:              np,
		ProcsPerNode:    2,
		Protocol:        Protocol(proto),
		Interval:        interval,
		Servers:         4,
		Seed:            1,
		VclProcessLimit: -1,
	}
}

// BenchmarkRun is the end-to-end macro benchmark: one complete
// fault-tolerant run (BT model, 4 checkpoint servers) per iteration.
func BenchmarkRun(b *testing.B) {
	for _, proto := range []string{"pcl", "vcl", "mlog"} {
		for _, np := range []int{64, 256, 1024} {
			if testing.Short() && np > 256 {
				continue
			}
			b.Run(fmt.Sprintf("proto=%s/np=%d", proto, np), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rep, err := Run(benchRunOpts(proto, np))
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(rep.Completion.Seconds(), "virt-s")
						b.ReportMetric(float64(rep.Waves), "waves")
					}
				}
			})
		}
	}
}
