package ftckpt

// The budgets of the scenario table: what one run without sinks costs the
// simulator.

import (
	"runtime"
	"sync"
	"testing"

	"ftckpt/internal/obs"
)

// kernelCost is one plain run of a budgeted row: its Report (Metrics
// stripped), the kernel's counters, the heap allocations around it and
// the checkpoint ticks Mlog deferred.
type kernelCost struct {
	rep            Report
	stats          KernelStats
	mallocs, bytes uint64
	deferred       int64
}

// kernelRuns makes each budgeted row's plain run once per test process.
// Only TestAllocCeilings reads the allocations, and it is serial: a serial
// test runs before any parallel one resumes, so it is the first to ask for
// the rows it gates and measures each with nothing beside it.
var kernelRuns = map[string]func() (kernelCost, error){}

func init() {
	for i := range scenarios {
		if sc := &scenarios[i]; sc.budget != nil {
			kernelRuns[sc.name] = sync.OnceValues(func() (kernelCost, error) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				rep, st, err := RunKernelStats(sc.opts)
				runtime.ReadMemStats(&after)
				deferred := rep.Metrics.Tally[obs.EvCkptDeferred]
				rep.Metrics = nil
				return kernelCost{rep, st, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, deferred}, err
			})
		}
	}
}

func kernelRun(t *testing.T, name string) (*budget, kernelCost) {
	t.Helper()
	run := kernelRuns[name]
	if run == nil {
		t.Fatalf("%s is not a budgeted row", name)
	}
	c, err := run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return byName[name].budget, c
}

// at256 runs check on the NP=256 rows as parallel subtests named by
// protocol.  The counts do not depend on the race detector and an
// instrumented Mlog run at NP=256 costs about a minute, so under -race the
// Mlog row is skipped; CI checks it in a no-race step.
func at256(t *testing.T, check func(t *testing.T, b *budget, st KernelStats, np int)) {
	t.Parallel()
	forRows(t, "%s-256", func(t *testing.T, name string) {
		if raceEnabled && byName[name].opts.Protocol == Mlog {
			t.Skip("an instrumented Mlog run at NP=256 is slow; its counts do not need the race detector")
		}
		b, c := kernelRun(t, name)
		check(t, b, c.stats, byName[name].opts.NP)
	}, "pcl", "vcl", "mlog")
}

// TestHeapHighWaterBounded: the head-of-line lanes and one armed flow
// completion per resource clock keep the event heap O(NP) deep through a
// wave.  At NP=256 it holds 429 entries under Pcl (an NP² marker flood),
// 644 under Vcl and 768 under Mlog (a cancelled event leaves the heap at
// once); one entry per pending small message or daemon admit made the
// Pcl and Vcl runs reach 29 179 and 122 623.
func TestHeapHighWaterBounded(t *testing.T) {
	at256(t, func(t *testing.T, b *budget, st KernelStats, np int) {
		if st.HeapMax > b.heapPerRank*np || st.LaneMax == 0 || st.Scheduled < st.Fired+st.Cancelled {
			t.Errorf("want heap high-water <= %d, some event through a lane and fired + cancelled <= scheduled; stats %+v",
				b.heapPerRank*np, st)
		}
	})
}

// TestKernelCountsPinned pins the logical event counts at NP=256.  How
// events are queued may change — lanes, say — but not what they
// count: a re-arm of a pending flow completion is still one cancelled and
// one scheduled event, so a re-timer that drops or double-counts one fails
// here by name.  Scheduled counts the keys drawn, so a small message's
// reserved release key counts whether or not its event was needed (only
// behind a backlog); fired counts only the releases that were.
func TestKernelCountsPinned(t *testing.T) {
	at256(t, func(t *testing.T, b *budget, st KernelStats, _ int) {
		if got := [4]uint64{st.Scheduled, st.Fired, st.Cancelled, st.Resumes}; got != b.counts {
			t.Errorf("scheduled, fired, cancelled, resumes %v; pinned %v", got, b.counts)
		}
	})
}

// TestOverloadedMlogReturns: the mlog-64-overload row offers its servers
// more image bytes than they can store, so Mlog's admission control defers
// the ticks that find the last image in flight, and the run returns (in
// 0.8 s on a 2-core host; it never did before) with pinned counts and an
// O(NP) heap.  An instrumented run of it is slow,
// so it skips under -race; CI runs it in the no-race allocation step.
func TestOverloadedMlogReturns(t *testing.T) {
	t.Parallel()
	if raceEnabled {
		t.Skip("an instrumented overloaded Mlog run is slow; its counts do not need the race detector")
	}
	b, c := kernelRun(t, "mlog-64-overload")
	st, np := c.stats, byName["mlog-64-overload"].opts.NP
	if got := [4]uint64{st.Scheduled, st.Fired, st.Cancelled, st.Resumes}; got != b.counts {
		t.Errorf("scheduled, fired, cancelled, resumes %v; pinned %v", got, b.counts)
	}
	if st.HeapMax > b.heapPerRank*np || st.Scheduled < st.Fired+st.Cancelled {
		t.Errorf("want heap high-water <= %d and fired + cancelled <= scheduled; stats %+v", b.heapPerRank*np, st)
	}
	if c.deferred == 0 || c.rep.LocalCheckpoints == 0 {
		t.Errorf("%d ticks deferred, %d local checkpoints: want both > 0", c.deferred, c.rep.LocalCheckpoints)
	}
}

// TestAllocCeilings: a deterministic run repeats its mallocs to within
// 0.2 %, so they are what a plain test can gate (wall-clock is not).  Each
// recorded value is the largest of four repeats, the ceiling 3 % above it;
// the two real-kernel rows also gate TotalAlloc at +5 %, since a payload
// copy costs bytes, not mallocs, and so do the three Mlog rows, since a
// log record that regrows costs bytes too.  mlog-256 is the per-record
// logging path at the benchmark's proto-matrix-256 size.  A change that
// allocates more or less re-records the values (last, every row's mallocs
// and ulfm-node-8's bytes: when a rank's image free lists became arrays
// and a collected image's App buffer went back before its drains landed)
// and says so.  A re-record only tightens: a row whose bytes came out
// above the recorded value keeps it (storage-incremental-8 and the three
// Mlog rows then, by at most 0.12 %: an image record is 16 bytes larger
// and a rank's free lists sit inline in the hierarchy's index).
func TestAllocCeilings(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation counts are recorded for a plain, full run")
	}
	for _, sc := range scenarios {
		if sc.budget == nil || sc.budget.mallocs == 0 {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			b, c := kernelRun(t, sc.name)
			t.Logf("%d mallocs, %d bytes", c.mallocs, c.bytes) // what a re-record reads, with -v
			if ceiling := b.mallocs + b.mallocs*3/100; c.mallocs > ceiling {
				t.Errorf("%d mallocs in one run, ceiling %d (recorded %d + 3%%)", c.mallocs, ceiling, b.mallocs)
			}
			if ceiling := b.bytes + b.bytes*5/100; b.bytes > 0 && c.bytes > ceiling {
				t.Errorf("%d bytes allocated in one run, ceiling %d (recorded %d + 5%%)", c.bytes, ceiling, b.bytes)
			}
		})
	}
}

// TestShardsOptionIgnored pins the deprecated Options.Shards as a no-op:
// any value gives the same Report and the same kernel counters.
func TestShardsOptionIgnored(t *testing.T) {
	t.Parallel()
	_, c := kernelRun(t, "storage-incremental-8")
	o := byName["storage-incremental-8"].opts
	for _, n := range []int{2, 7} {
		o.Shards = n
		rep, st, err := RunKernelStats(o)
		if rep.Metrics = nil; err != nil || rep != c.rep || st != c.stats {
			t.Errorf("Shards %d changed the run (%v):\n  got  %+v %+v\n  want %+v %+v", n, err, rep, st, c.rep, c.stats)
		}
	}
}
