package ftckpt

// Golden determinism tests: the contract the performance work must not
// bend is that a seed fully determines a run.  Every observable artifact —
// the Report (including the workload checksum), the metrics export and the
// Chrome trace timeline — must be byte-identical when the same Options run
// twice, including runs that exercise failure injection, recovery and
// replicated checkpoint servers.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// goldenArtifacts executes one run and returns its comparable Report (the
// registry pointer stripped), metrics JSON and Chrome trace bytes.
func goldenArtifacts(t *testing.T, o Options) (Report, []byte, []byte) {
	t.Helper()
	col := NewCollector()
	o.Sink = col
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var met, trace bytes.Buffer
	if err := rep.Metrics.WriteJSON(&met); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := col.WriteChromeTrace(&trace); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	checkReportAgainstEvents(t, rep, col.Events())
	rep.Metrics = nil
	return rep, met.Bytes(), trace.Bytes()
}

func checkGolden(t *testing.T, o Options) {
	t.Helper()
	r1, m1, c1 := goldenArtifacts(t, o)
	r2, m2, c2 := goldenArtifacts(t, o)
	if r1 != r2 {
		t.Errorf("Report differs across identical runs:\n  first  %+v\n  second %+v", r1, r2)
	}
	if r1.Checksum != r2.Checksum {
		t.Errorf("checksum differs: %v vs %v", r1.Checksum, r2.Checksum)
	}
	if !bytes.Equal(m1, m2) {
		t.Errorf("metrics JSON differs across identical runs (%d vs %d bytes)", len(m1), len(m2))
	}
	if !bytes.Equal(c1, c2) {
		t.Errorf("Chrome trace differs across identical runs (%d vs %d bytes)", len(c1), len(c2))
	}
}

// TestGoldenDeterminism runs each protocol twice through a failure and
// recovery and requires byte-identical artifacts.
func TestGoldenDeterminism(t *testing.T) {
	for _, proto := range []Protocol{Pcl, Vcl, Mlog} {
		t.Run(string(proto), func(t *testing.T) {
			checkGolden(t, Options{
				Workload:     WorkloadBT,
				Class:        ClassA,
				NP:           16,
				ProcsPerNode: 2,
				Protocol:     proto,
				Interval:     2 * time.Second,
				Servers:      2,
				Seed:         42,
				Failures:     []Failure{KillRank(3*time.Second, 5)},
			})
		})
	}
}

// TestGoldenDeterminismReplicated covers the replication + heartbeat path,
// whose retry timers and failover fetches must be as reproducible as the
// base protocols.
func TestGoldenDeterminismReplicated(t *testing.T) {
	checkGolden(t, Options{
		Workload:     WorkloadCGReal,
		NP:           8,
		ProcsPerNode: 2,
		Protocol:     Pcl,
		Interval:     5 * time.Millisecond,
		Storage:      replicatedTier(3),
		Heartbeat:    &HeartbeatSpec{Period: 2 * time.Millisecond},
		Seed:         7,
		Failures: []Failure{
			KillServer(11*time.Millisecond, 1),
			KillRank(17*time.Millisecond, 3),
		},
	})
}

// TestGoldenDeterminismChaosSweep runs a replicated, heartbeat-enabled
// chaos sweep concurrently (Jobs=4, with GOMAXPROCS pinned above 1 so
// that under -race the points really execute in parallel) and requires
// every artifact — reports, the deterministically merged metrics
// registry, each point's Chrome trace and the serialized progress log —
// to be byte-identical across two executions.  This is the dynamic half
// of the contract ftlint enforces statically: no map-iteration order, no
// worker interleaving and no shared-registry write may leak into output.
func TestGoldenDeterminismChaosSweep(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	base := chaosSweepPoints()

	runOnce := func() ([]Report, []byte, [][]byte, []byte) {
		pts := make([]Options, len(base))
		cols := make([]*Collector, len(base))
		for i := range base {
			pts[i] = base[i]
			cols[i] = NewCollector()
			pts[i].Sink = cols[i]
			// Non-nil Verbose opts the point into the sweep's ordered
			// trace sink; the function itself is replaced by Sweep.
			pts[i].Verbose = func(string, ...any) {}
		}
		met := NewMetrics()
		var traceLog bytes.Buffer
		reps, err := Sweep(pts, SweepOptions{
			Jobs:    4,
			Metrics: met,
			Trace:   func(format string, args ...any) { fmt.Fprintf(&traceLog, format+"\n", args...) },
		})
		if err != nil {
			t.Fatalf("Sweep: %v", err)
		}
		var metJSON bytes.Buffer
		if err := met.WriteJSON(&metJSON); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		chromes := make([][]byte, len(cols))
		for i, col := range cols {
			var b bytes.Buffer
			if err := col.WriteChromeTrace(&b); err != nil {
				t.Fatalf("WriteChromeTrace: %v", err)
			}
			chromes[i] = b.Bytes()
		}
		for i := range reps {
			reps[i].Metrics = nil
		}
		return reps, metJSON.Bytes(), chromes, traceLog.Bytes()
	}

	r1, m1, c1, l1 := runOnce()
	r2, m2, c2, l2 := runOnce()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("point %d: Report differs across identical sweeps:\n  first  %+v\n  second %+v", i, r1[i], r2[i])
		}
		if !bytes.Equal(c1[i], c2[i]) {
			t.Errorf("point %d: Chrome trace differs across identical sweeps (%d vs %d bytes)", i, len(c1[i]), len(c2[i]))
		}
	}
	if !bytes.Equal(m1, m2) {
		t.Errorf("merged metrics JSON differs across identical sweeps (%d vs %d bytes)", len(m1), len(m2))
	}
	if !bytes.Equal(l1, l2) {
		t.Errorf("serialized trace log differs across identical sweeps (%d vs %d bytes)", len(l1), len(l2))
	}
}

// replicatedTier is the replicated server tier of the golden suites:
// servers checkpoint servers, two copies of every image, a write quorum of
// one, two retries 1 ms apart.
func replicatedTier(servers int) *StorageSpec {
	return &StorageSpec{Levels: []LevelSpec{{Kind: LevelServers, Servers: servers,
		Replicas: 2, WriteQuorum: 1, StoreRetries: 2, RetryBackoff: time.Millisecond}}}
}

// chaosSweepPoints are the four replicated, heartbeat-enabled cg-real
// runs of TestGoldenDeterminismChaosSweep, each with its own kills.
func chaosSweepPoints() []Options {
	hb := &HeartbeatSpec{Period: 2 * time.Millisecond}
	base := []Options{
		{Protocol: Pcl, Seed: 7, Failures: []Failure{
			KillServer(11*time.Millisecond, 1), KillRank(17*time.Millisecond, 3)}},
		{Protocol: Vcl, Seed: 11, Failures: []Failure{
			KillRank(13*time.Millisecond, 2), KillNode(23*time.Millisecond, 1)}},
		{Protocol: Mlog, Seed: 13, Failures: []Failure{
			KillServer(9*time.Millisecond, 0)}},
		{Protocol: Pcl, Seed: 21, Failures: []Failure{
			KillNode(15*time.Millisecond, 2)}},
	}
	for i := range base {
		base[i].Workload = WorkloadCGReal
		base[i].NP = 8
		base[i].ProcsPerNode = 2
		base[i].Interval = 5 * time.Millisecond
		base[i].Storage = replicatedTier(3)
		base[i].Heartbeat = hb
	}
	return base
}

// ulfmGolden is the spare-rank in-job recovery scenario of the golden
// suite: Jacobi under ULFM recovery with a spare pool.
func ulfmGolden() Options {
	return Options{
		Workload: WorkloadJacobi,
		NP:       8,
		Protocol: Pcl,
		Interval: 25 * time.Millisecond,
		Servers:  2,
		Recovery: RecoveryULFM,
		Spares:   2,
		Seed:     5,
	}
}

// TestGoldenDeterminismULFM pins the in-job recovery path: a spare-rank
// repair sweep — rank kill, node kill spliced onto a spare, and the
// non-blocking protocol — must repair without any rollback-restart and
// be byte-identical across repeats.
func TestGoldenDeterminismULFM(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"rank", func(o *Options) { o.Failures = []Failure{KillRank(40*time.Millisecond, 3)} }},
		{"node", func(o *Options) { o.Failures = []Failure{KillNode(40*time.Millisecond, 3)} }},
		{"vcl", func(o *Options) {
			o.Protocol = Vcl
			o.Failures = []Failure{KillRank(40*time.Millisecond, 3)}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			o := ulfmGolden()
			tc.mut(&o)
			rep, _, _ := goldenArtifacts(t, o)
			if rep.Repairs != 1 || rep.Restarts != 0 {
				t.Errorf("Repairs = %d, Restarts = %d, want 1 in-job repair and zero restarts",
					rep.Repairs, rep.Restarts)
			}
			if rep.RecoveredWork <= 0 || rep.RecoveredWork >= 1 {
				t.Errorf("RecoveredWork = %v, want in (0, 1) after one repair", rep.RecoveredWork)
			}
			checkGolden(t, o)
		})
	}
}

// TestGoldenDeterminismGrid covers the multi-cluster topology: WAN flow
// caps and per-cluster servers stress the fluid-flow rescheduling whose
// ordering the allocation work reworked.
func TestGoldenDeterminismGrid(t *testing.T) {
	checkGolden(t, Options{
		Workload:     WorkloadBT,
		Class:        ClassA,
		NP:           16,
		ProcsPerNode: 2,
		Protocol:     Vcl,
		Interval:     2 * time.Second,
		Platform:     PlatformGrid,
		Seed:         9,
	})
}
