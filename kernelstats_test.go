package ftckpt

import (
	"runtime"
	"sync"
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

// kernelStats256 holds the kernel's counters for kernelRunOpts(proto, 256),
// each run once per test process: the heap bound and the count pins read
// the same run.
var kernelStats256 = map[Protocol]func() (KernelStats, error){
	Pcl:  kernelStatsOnce(Pcl),
	Vcl:  kernelStatsOnce(Vcl),
	Mlog: kernelStatsOnce(Mlog),
}

func kernelStatsOnce(proto Protocol) func() (KernelStats, error) {
	return sync.OnceValues(func() (KernelStats, error) {
		_, st, err := RunKernelStats(kernelRunOpts(proto, 256))
		return st, err
	})
}

// skipInstrumentedMlog skips the Mlog case under the race detector: the
// counts do not depend on it, and an instrumented Mlog run at NP=256 costs
// about a minute.  CI checks the case in a no-race step.
func skipInstrumentedMlog(t *testing.T, proto Protocol) {
	if proto == Mlog && raceEnabled {
		t.Skip("an instrumented Mlog run at NP=256 is slow; its counts do not need the race detector")
	}
}

// TestHeapHighWaterBounded pins what the head-of-line lanes and the flow
// timer set buy: the event heap stays O(NP) deep through a checkpoint
// wave.  BT.A at NP=256, ppn 2, measures 429 entries under Pcl (whose wave
// floods NP² markers), 986 under Vcl (whose daemons delay every packet)
// and 768 under Mlog (whose re-timed flows were 1 022, 1 867 and 1 277
// while every flow completion was an event of its own); with one heap
// entry per pending small message or daemon admit the Pcl and Vcl runs
// reach 29 179 and 122 623.
func TestHeapHighWaterBounded(t *testing.T) {
	const np = 256
	for _, proto := range []Protocol{Pcl, Vcl, Mlog} {
		t.Run(string(proto), func(t *testing.T) {
			skipInstrumentedMlog(t, proto)
			st, err := kernelStats256[proto]()
			if err != nil {
				t.Fatal(err)
			}
			if st.HeapMax > 4*np {
				t.Errorf("heap high-water %d entries, want <= 4*NP = %d (stats %+v)", st.HeapMax, 4*np, st)
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

// TestKernelCountsPinned pins the logical event counts of the three
// protocols at NP=256, as recorded before flow completions moved into a
// keyed timer set (sim.Timers).  How events are queued may change — lanes,
// the timer set — but not what they count: a re-arm of a pending flow
// completion is still one cancelled and one scheduled event, so a re-timer
// that drops or double-counts one fails here by name.
func TestKernelCountsPinned(t *testing.T) {
	for _, c := range []struct {
		proto                       Protocol
		scheduled, fired, cancelled uint64
	}{
		{Pcl, 2_006_795, 1_665_970, 340_825},
		{Vcl, 2_500_731, 2_111_390, 389_341},
		{Mlog, 20_620_751, 3_279_811, 17_340_915},
	} {
		t.Run(string(c.proto), func(t *testing.T) {
			skipInstrumentedMlog(t, c.proto)
			st, err := kernelStats256[c.proto]()
			if err != nil {
				t.Fatal(err)
			}
			if st.Scheduled != c.scheduled || st.Fired != c.fired || st.Cancelled != c.cancelled {
				t.Errorf("scheduled %d, fired %d, cancelled %d; pinned %d, %d, %d",
					st.Scheduled, st.Fired, st.Cancelled, c.scheduled, c.fired, c.cancelled)
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
// so; so does one that allocates less, or its saving could come back
// unnoticed under the old ceiling.  Every row was last re-recorded when
// channels stopped allocating a delivery closure and an unused backlog,
// the queue became segmented and Packet.Clone began sharing Data (four
// repeats, largest kept, as above).
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
		{"pcl-64", kernelRunOpts(Pcl, 64), 335_081, 0},
		{"vcl-64", kernelRunOpts(Vcl, 64), 332_581, 0},
		{"mlog-64", kernelRunOpts(Mlog, 64), 878_773, 0},
		{"mlog-256", kernelRunOpts(Mlog, 256), 3_572_496, 0},
		{"storage-incremental-8", storageGolden(), 56_266, 7_527_272},
		{"ulfm-node-repair-8", ulfm, 113_141, 213_680_976},
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
