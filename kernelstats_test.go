package ftckpt

import (
	"runtime"
	"testing"
	"time"
)

// kernelRunOpts is the one option set the kernel-level checks share: the
// BT.A model, two processes per node, four checkpoint servers, seed 1, and
// an interval that commits a couple of waves at each size.
func kernelRunOpts(proto Protocol, np int) Options {
	return Options{
		Workload:        WorkloadBT,
		Class:           ClassA,
		NP:              np,
		ProcsPerNode:    2,
		Protocol:        proto,
		Interval:        map[int]time.Duration{64: 8 * time.Second, 256: 2 * time.Second}[np],
		Servers:         4,
		Seed:            1,
		VclProcessLimit: -1,
	}
}

// TestHeapHighWaterBounded pins what the head-of-line lanes buy: the event
// heap stays O(NP) deep through a checkpoint wave.  BT.A at NP=256, ppn 2,
// measures 1 022 entries under Pcl (whose wave floods NP² markers) and
// 1 867 under Vcl (whose daemons delay every packet); with one heap entry
// per pending small message or daemon admit the same runs reach 29 179 and
// 122 623.
func TestHeapHighWaterBounded(t *testing.T) {
	const np = 256
	for _, proto := range []Protocol{Pcl, Vcl} {
		t.Run(string(proto), func(t *testing.T) {
			_, st, err := RunKernelStats(kernelRunOpts(proto, np))
			if err != nil {
				t.Fatal(err)
			}
			if st.HeapMax > 8*np {
				t.Errorf("heap high-water %d entries, want <= 8*NP = %d (stats %+v)", st.HeapMax, 8*np, st)
			}
			if st.LaneMax == 0 {
				t.Errorf("no event went through a lane (stats %+v)", st)
			}
			if st.Scheduled < st.Fired+st.Cancelled {
				t.Errorf("fired %d + cancelled %d events exceed the %d scheduled", st.Fired, st.Cancelled, st.Scheduled)
			}
		})
	}
}

// TestAllocCeilings holds heap allocations per run under a ceiling.  The
// simulator is deterministic, so runtime.MemStats.Mallocs around one Run
// repeats to within 0.2 % (the rest is runtime background work); wall-clock
// does not, which is why allocations are what a plain test can gate.  Each
// constant is the largest of four repeats at the commit that recorded it,
// and the ceiling is that plus 3 %: a leak in a protocol's hot path, the
// hierarchy's staging/drain/delta chain or the revoke/park/splice repair
// fails here.  mlog-256 is the per-record path (one replicated store per
// received message) at the size the benchmark's proto-matrix-256 runs it.
// The two real-kernel cases also gate bytes (TotalAlloc) at recorded + 5 %:
// their payloads are real, so a copy returned to the data plane (an
// unsized snapshot blob, a re-copied forwarded block) costs bytes in
// proportion to the payload while it adds only one malloc per message.
// A change that means to allocate more re-records the constants and says
// so.
func TestAllocCeilings(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation counts are recorded for a plain, full run")
	}
	ulfm := ulfmGolden()
	ulfm.Failures = []Failure{KillNode(40*time.Millisecond, 3)}
	for _, c := range []struct {
		name     string
		opts     Options
		recorded uint64
		bytes    uint64 // recorded TotalAlloc; 0 = not gated
	}{
		{"pcl-64", kernelRunOpts(Pcl, 64), 417_332, 0},
		{"vcl-64", kernelRunOpts(Vcl, 64), 422_451, 0},
		{"mlog-64", kernelRunOpts(Mlog, 64), 1_112_622, 0},
		{"mlog-256", kernelRunOpts(Mlog, 256), 4_507_840, 0},
		{"storage-incremental-8", storageGolden(), 56_491, 7_534_384},
		{"ulfm-node-repair-8", ulfm, 115_204, 218_252_600},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(c.opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got, ceiling := after.Mallocs-before.Mallocs, c.recorded+c.recorded*3/100
			gotB, ceilingB := after.TotalAlloc-before.TotalAlloc, c.bytes+c.bytes*5/100
			t.Logf("%d mallocs, %d bytes", got, gotB) // what a re-record reads, with -v
			if got > ceiling {
				t.Errorf("%d mallocs in one run, ceiling %d (recorded %d + 3%%)", got, ceiling, c.recorded)
			}
			if c.bytes > 0 && gotB > ceilingB {
				t.Errorf("%d bytes allocated in one run, ceiling %d (recorded %d + 5%%)", gotB, ceilingB, c.bytes)
			}
		})
	}
}

// TestShardsOptionIgnored pins the deprecated Options.Shards as a no-op:
// any value gives the same Report and the same kernel counters.
func TestShardsOptionIgnored(t *testing.T) {
	o := storageGolden()
	run := func(n int) (Report, KernelStats) {
		o.Shards = n
		rep, st, err := RunKernelStats(o)
		if err != nil {
			t.Fatalf("%d: %v", n, err)
		}
		rep.Metrics = nil
		return rep, st
	}
	rep0, st0 := run(0)
	for _, n := range []int{2, 7} {
		if rep, st := run(n); rep != rep0 || st != st0 {
			t.Errorf("%d changed the run:\n  got  %+v %+v\n  want %+v %+v", n, rep, st, rep0, st0)
		}
	}
}
