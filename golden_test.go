package ftckpt

// Golden determinism tests: the contract the performance work must not
// bend is that a seed fully determines a run.  Every observable artifact —
// the Report (including the workload checksum), the metrics export, the
// Chrome trace timeline and the event line stream — must be byte-identical
// when the same Options run twice, including runs that exercise failure
// injection, recovery and replicated checkpoint servers.  A mismatch is
// reported by firstDivergence, which names the first differing line.

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ftckpt/internal/obs"
)

// goldenArtifacts executes one run and returns its comparable Report (the
// registry pointer stripped), metrics JSON, Chrome trace and event line
// stream.
func goldenArtifacts(t *testing.T, o Options) (Report, []byte, []byte, []byte) {
	t.Helper()
	col := NewCollector()
	var met, trace, events bytes.Buffer
	chrome := NewChromeStreamSink(&trace)
	o.Sink = obs.NewHub(col, chrome, NewLineSink(&events))
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := rep.Metrics.WriteJSON(&met); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := chrome.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	checkReportAgainstEvents(t, rep, col.Events())
	rep.Metrics = nil
	return rep, met.Bytes(), trace.Bytes(), events.Bytes()
}

// firstDivergence names the first line where a and b differ: its 1-based
// number, the five lines before it and both versions of it ("<end>" for a
// text that ended).  It returns "" when a and b are equal.
func firstDivergence(a, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	split := func(text []byte) []string { return strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") }
	la, lb := split(a), split(b)
	n := 0 // lines in common
	for n < len(la) && n < len(lb) && la[n] == lb[n] {
		n++
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "first difference at line %d:\n", n+1)
	for i := max(0, n-5); i < n; i++ {
		fmt.Fprintf(&sb, "  %d  %s\n", i+1, la[i])
	}
	line := func(l []string) string {
		if n < len(l) {
			return l[n]
		}
		return "<end>"
	}
	fmt.Fprintf(&sb, "- %d  %s\n+ %d  %s", n+1, line(la), n+1, line(lb))
	return sb.String()
}

// checkGolden runs o twice and requires identical artifacts.
func checkGolden(t *testing.T, o Options) {
	t.Helper()
	r1, m1, c1, e1 := goldenArtifacts(t, o)
	r2, m2, c2, e2 := goldenArtifacts(t, o)
	if r1 != r2 {
		t.Errorf("Report differs across identical runs:\n  first  %+v\n  second %+v", r1, r2)
	}
	if r1.Checksum != r2.Checksum {
		t.Errorf("checksum differs: %v vs %v", r1.Checksum, r2.Checksum)
	}
	for _, art := range []struct {
		name string
		a, b []byte
	}{{"metrics JSON", m1, m2}, {"Chrome trace", c1, c2}, {"event stream", e1, e2}} {
		if d := firstDivergence(art.a, art.b); d != "" {
			t.Errorf("%s differs across identical runs, %s", art.name, d)
		}
	}
}

// TestFirstDivergenceNamesTheEvent runs the replicated-hb-8 scenario with
// its rank kill at 17 ms and at 18 ms: the streams agree up to the
// earlier kill, and firstDivergence names that line, its number and both
// versions of it.
func TestFirstDivergenceNamesTheEvent(t *testing.T) {
	var early Options
	for _, sc := range pinnedScenarios() {
		if sc.name == "replicated-hb-8" {
			early = sc.opts
		}
	}
	late := early
	late.Failures = []Failure{KillServer(11*time.Millisecond, 1), KillRank(18*time.Millisecond, 3)}
	_, _, _, a := goldenArtifacts(t, early)
	_, _, _, b := goldenArtifacts(t, late)
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	n := 0
	for n < len(la) && n < len(lb) && la[n] == lb[n] {
		n++
	}
	if !strings.HasPrefix(la[n], "17000000 component-dead 3 ") {
		t.Fatalf("the streams part at line %d, %q, not at the 17 ms kill", n+1, la[n])
	}
	d := firstDivergence(a, b)
	for _, want := range []string{
		fmt.Sprintf("first difference at line %d:\n", n+1),
		fmt.Sprintf("\n  %d  %s\n", n, la[n-1]),
		fmt.Sprintf("\n- %d  %s\n", n+1, la[n]),
		fmt.Sprintf("\n+ %d  %s", n+1, lb[n]),
	} {
		if !strings.Contains(d, want) {
			t.Errorf("firstDivergence lacks %q:\n%s", want, d)
		}
	}
	if firstDivergence(a, a) != "" {
		t.Error("firstDivergence reports a difference between equal streams")
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
// registry, each point's Chrome trace and each point's event stream — to
// be byte-identical across two executions: no map-iteration order, no
// worker interleaving and no shared-registry write may leak into output.
// TestGoldenDeterminismRepeat repeats runs further to catch map order;
// lint_test.go holds the two rules no run can show.
func TestGoldenDeterminismChaosSweep(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	base := chaosSweepPoints()

	runOnce := func() ([]Report, []byte, [][]byte, [][]byte) {
		pts := make([]Options, len(base))
		chromes := make([]bytes.Buffer, len(base))
		events := make([]bytes.Buffer, len(base))
		sinks := make([]*ChromeStreamSink, len(base))
		for i := range base {
			pts[i] = base[i]
			sinks[i] = NewChromeStreamSink(&chromes[i])
			pts[i].Sink = obs.NewHub(sinks[i], NewLineSink(&events[i]))
		}
		met := NewMetrics()
		reps, err := Sweep(pts, SweepOptions{Jobs: 4, Metrics: met})
		if err != nil {
			t.Fatalf("Sweep: %v", err)
		}
		var metJSON bytes.Buffer
		if err := met.WriteJSON(&metJSON); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		traces := make([][]byte, len(sinks))
		streams := make([][]byte, len(sinks))
		for i, sink := range sinks {
			if err := sink.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			traces[i], streams[i] = chromes[i].Bytes(), events[i].Bytes()
		}
		for i := range reps {
			reps[i].Metrics = nil
		}
		return reps, metJSON.Bytes(), traces, streams
	}

	r1, m1, c1, e1 := runOnce()
	r2, m2, c2, e2 := runOnce()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("point %d: Report differs across identical sweeps:\n  first  %+v\n  second %+v", i, r1[i], r2[i])
		}
		if d := firstDivergence(c1[i], c2[i]); d != "" {
			t.Errorf("point %d: Chrome trace differs across identical sweeps, %s", i, d)
		}
		if d := firstDivergence(e1[i], e2[i]); d != "" {
			t.Errorf("point %d: event stream differs across identical sweeps, %s", i, d)
		}
	}
	if d := firstDivergence(m1, m2); d != "" {
		t.Errorf("merged metrics JSON differs across identical sweeps, %s", d)
	}
}

// TestGoldenDeterminismRepeat runs each case eight times in one process
// and requires one result.  Go draws a new map order on every range, so
// map order that reaches a run shows up as a second result; two runs, as
// checkGolden makes, see it only sometimes.
func TestGoldenDeterminismRepeat(t *testing.T) {
	const repeats = 8
	cases := []struct {
		name  string
		o     Options
		chaos *ChaosSpec // nil: a plain Run, compared on all four artifacts
	}{
		// The CI Mlog chaos smoke: restarted ranks retransmit their
		// unacknowledged sends to every destination.  Compared on the
		// Report and the event stream.
		{"mlog-chaos", Options{Workload: WorkloadCGReal, NP: 8, Protocol: Mlog,
			Interval: 5 * time.Millisecond, Storage: replicatedTier(2)},
			&ChaosSpec{Seed: 7, Kills: 3, ServerFrac: 0.3, NodeFrac: 0.25,
				From: 8 * time.Millisecond, Until: 40 * time.Millisecond}},
		// Metrics snapshots: one counter sample per tracked counter at each
		// instant, in the order the trace keeps them.
		{"snapshots", Options{Workload: WorkloadCGReal, NP: 4, Protocol: Pcl,
			Interval: 5 * time.Millisecond, Servers: 1, Seed: 7,
			MetricsSnapshot: 2 * time.Millisecond}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (Report, [3][]byte) {
				if tc.chaos == nil {
					rep, met, trace, events := goldenArtifacts(t, tc.o)
					return rep, [3][]byte{met, trace, events}
				}
				var events bytes.Buffer
				o := tc.o
				o.Sink = NewLineSink(&events)
				out, err := Chaos(o, *tc.chaos)
				if err != nil {
					t.Fatalf("Chaos: %v", err)
				}
				out.Report.Metrics = nil
				return out.Report, [3][]byte{nil, nil, events.Bytes()}
			}
			r0, a0 := run()
			for i := 1; i < repeats; i++ {
				r, a := run()
				if r != r0 {
					t.Fatalf("run %d: Report differs from run 0:\n  run 0 %+v\n  run %d %+v", i, r0, i, r)
				}
				for j, name := range []string{"metrics JSON", "Chrome trace", "event stream"} {
					if d := firstDivergence(a0[j], a[j]); d != "" {
						t.Fatalf("run %d: %s differs from run 0, %s", i, name, d)
					}
				}
			}
		})
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
			rep, _, _, _ := goldenArtifacts(t, o)
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
