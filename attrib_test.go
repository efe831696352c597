package ftckpt

// Tests for the causal span tracer surface: the per-phase overhead
// attribution must conserve virtual completion time, match each
// protocol's cost signature (pcl freezes and coordinates but never logs;
// vcl logs but never freezes), and be byte-identical across repeated
// runs and across Sweep -jobs values.

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"ftckpt/internal/obs"
)

// attribOptions uses a single checkpoint server deliberately: server
// contention stretches vcl's log shipments past the concurrent image
// window, so the logging phase is visible despite the partition's
// image-over-logging precedence.
func attribOptions(proto Protocol) Options {
	return Options{
		Workload:    WorkloadCGReal,
		NP:          4,
		Protocol:    proto,
		Interval:    5 * time.Millisecond,
		Servers:     1,
		Seed:        7,
		Attribution: true,
	}
}

func attribJSON(t *testing.T, a *Attribution) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestAttributionProtocolSignatures machine-checks the paper's cost
// structure: the blocking protocol pays freeze and coordination and never
// logs; the non-blocking protocol logs channel state and never freezes;
// message logging logs.  Every breakdown must conserve completion time.
func TestAttributionProtocolSignatures(t *testing.T) {
	for _, tc := range []struct {
		proto Protocol
		check func(t *testing.T, a *Attribution)
	}{
		{Pcl, func(t *testing.T, a *Attribution) {
			if a.Aggregate.Freeze <= 0 {
				t.Error("pcl: freeze time should be nonzero")
			}
			if a.Aggregate.Coordination <= 0 {
				t.Error("pcl: coordination time should be nonzero")
			}
			if a.Aggregate.Logging != 0 {
				t.Errorf("pcl: logging should be zero, got %v", a.Aggregate.Logging)
			}
		}},
		{Vcl, func(t *testing.T, a *Attribution) {
			if a.Aggregate.Logging <= 0 {
				t.Error("vcl: logging time should be nonzero")
			}
			if a.Aggregate.Freeze != 0 {
				t.Errorf("vcl: freeze should be zero, got %v", a.Aggregate.Freeze)
			}
		}},
		{Mlog, func(t *testing.T, a *Attribution) {
			if a.Aggregate.Logging <= 0 {
				t.Error("mlog: logging time should be nonzero")
			}
			if a.Aggregate.Freeze != 0 || a.Aggregate.Coordination != 0 {
				t.Errorf("mlog: freeze/coordination should be zero, got %v/%v",
					a.Aggregate.Freeze, a.Aggregate.Coordination)
			}
		}},
	} {
		t.Run(string(tc.proto), func(t *testing.T) {
			rep, err := Run(attribOptions(tc.proto))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			a := rep.Attribution
			if a == nil {
				t.Fatal("Report.Attribution is nil with Options.Attribution set")
			}
			if err := a.Check(); err != nil {
				t.Fatalf("conservation: %v", err)
			}
			if a.NP != 4 || string(tc.proto) != a.Protocol {
				t.Fatalf("attribution identity: %s np=%d", a.Protocol, a.NP)
			}
			if a.Aggregate.ImageTransfer <= 0 {
				t.Error("image transfer time should be nonzero for a checkpointing run")
			}
			tc.check(t, a)
		})
	}
}

// TestAttributionRecoveryPhases injects a failure and requires nonzero
// rollback on every rank of a coordinated protocol.
func TestAttributionRecoveryPhases(t *testing.T) {
	o := attribOptions(Pcl)
	o.Failures = []Failure{KillRank(8*time.Millisecond, 2)}
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	a := rep.Attribution
	if err := a.Check(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	for r, b := range a.Ranks {
		if b.Rollback <= 0 {
			t.Errorf("rank %d: coordinated rollback should be nonzero, got %v", r, b.Rollback)
		}
	}
}

// TestAttributionDeterministic runs the same Options twice and requires
// byte-identical attribution JSON — the golden contract.
func TestAttributionDeterministic(t *testing.T) {
	for _, proto := range []Protocol{Pcl, Vcl, Mlog} {
		t.Run(string(proto), func(t *testing.T) {
			o := attribOptions(proto)
			o.Failures = []Failure{KillRank(8*time.Millisecond, 1)}
			rep1, err := Run(o)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			rep2, err := Run(o)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			j1, j2 := attribJSON(t, rep1.Attribution), attribJSON(t, rep2.Attribution)
			if !bytes.Equal(j1, j2) {
				t.Fatalf("attribution JSON differs across identical runs:\n%s\nvs\n%s", j1, j2)
			}
		})
	}
}

// TestAttributionJobsInvariant sweeps four points sequentially and at
// Jobs=4 and requires every point's attribution to be byte-identical —
// span IDs come from the per-run hub, so concurrency cannot renumber
// them.
func TestAttributionJobsInvariant(t *testing.T) {
	points := make([]Options, 4)
	for i := range points {
		points[i] = attribOptions(Protocol([]Protocol{Pcl, Vcl, Mlog, Pcl}[i]))
		points[i].Seed = int64(i + 1)
	}
	seq, err := Sweep(points, SweepOptions{Jobs: 1})
	if err != nil {
		t.Fatalf("sequential sweep: %v", err)
	}
	par, err := Sweep(points, SweepOptions{Jobs: 4})
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	for i := range points {
		j1, j2 := attribJSON(t, seq[i].Attribution), attribJSON(t, par[i].Attribution)
		if !bytes.Equal(j1, j2) {
			t.Errorf("point %d: attribution differs between Jobs=1 and Jobs=4", i)
		}
	}
}

// TestAttributionUnderChaos runs the chaos harness with span tracing and
// requires the conservation invariant to hold alongside the recovery
// invariants.
func TestAttributionUnderChaos(t *testing.T) {
	o := attribOptions(Pcl)
	// Replication needs a replica set to spread over.
	o.Servers, o.Storage = 0, replicatedTier(3)
	rep, err := Chaos(o, ChaosSpec{
		Seed: 3, Kills: 3, ServerFrac: 0.3,
		From: 5 * time.Millisecond, Until: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Chaos: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Degraded == nil {
		if rep.Report.Attribution == nil {
			t.Fatal("chaos run lost its attribution")
		}
		if err := rep.Report.Attribution.Check(); err != nil {
			t.Fatalf("conservation under chaos: %v", err)
		}
	}
}

// chromeRecord is the part of a trace_event record the tests below read.
type chromeRecord struct {
	Ph   string   `json:"ph"`
	Cat  string   `json:"cat"`
	Name string   `json:"name"`
	Id   uint64   `json:"id"`
	Dur  *float64 `json:"dur"`
}

// tracedRun runs o with the Chrome exporter attached and returns the
// parsed records together with the events it saw.
func tracedRun(t *testing.T, o Options) ([]chromeRecord, []Event) {
	t.Helper()
	col := NewCollector()
	var buf bytes.Buffer
	sink := NewChromeStreamSink(&buf)
	o.Sink = obs.NewHub(col, sink)
	if _, err := Run(o); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var doc struct {
		TraceEvents []chromeRecord `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc.TraceEvents, col.Events()
}

// TestMetricsSnapshotCounters runs with a snapshot period and checks the
// counter-sample events arrive, carry the fixed metric names, and render
// as Chrome counter tracks.
func TestMetricsSnapshotCounters(t *testing.T) {
	o := attribOptions(Pcl)
	o.MetricsSnapshot = 2 * time.Millisecond
	recs, events := tracedRun(t, o)
	var samples int
	names := map[string]bool{}
	for _, ev := range events {
		if ev.Type == EvCounterSample {
			samples++
			names[ev.Detail] = true
		}
	}
	if samples == 0 {
		t.Fatal("no counter samples with MetricsSnapshot set")
	}
	for _, want := range []string{"markers.sent", "ckpt.local", "waves.committed"} {
		if !names[want] {
			t.Errorf("counter %q never sampled (got %v)", want, names)
		}
	}
	counters := 0
	for _, r := range recs {
		if r.Ph == "C" {
			counters++
			if !names[r.Name] {
				t.Errorf("counter record %q names no sampled counter", r.Name)
			}
		}
	}
	if counters != samples {
		t.Errorf("%d counter records for %d samples", counters, samples)
	}
}

// TestChromeTraceFlowEvents checks span/cause stamps render as Perfetto
// flow arrows: every "f" has exactly one "s" with its id, written before
// it.
func TestChromeTraceFlowEvents(t *testing.T) {
	recs, _ := tracedRun(t, attribOptions(Pcl))
	started := map[uint64]int{}
	var finishes int
	for _, r := range recs {
		if r.Cat != "flow" {
			continue
		}
		switch r.Ph {
		case "s":
			started[r.Id]++
		case "f":
			finishes++
			if started[r.Id] != 1 {
				t.Fatalf("flow finish %d follows %d starts, want 1", r.Id, started[r.Id])
			}
		}
	}
	if len(started) == 0 || finishes == 0 {
		t.Fatalf("no flow arrows in trace: %d starts, %d finishes", len(started), finishes)
	}
	for id, n := range started {
		if n != 1 {
			t.Errorf("flow %d started %d times", id, n)
		}
	}
}

// TestChromeStreamSink streams a Vcl run's trace and checks the document
// carries every record shape: complete spans, counters, instants and
// track metadata.
func TestChromeStreamSink(t *testing.T) {
	o := attribOptions(Vcl)
	o.MetricsSnapshot = 2 * time.Millisecond
	recs, _ := tracedRun(t, o)
	kinds := map[string]int{}
	for _, r := range recs {
		kinds[r.Ph]++
		if r.Ph == "X" && (r.Dur == nil || *r.Dur < 0) {
			t.Errorf("span %q has no duration or a negative one", r.Name)
		}
	}
	if kinds["X"] == 0 {
		t.Errorf("no complete spans: %v", kinds)
	}
	if kinds["C"] == 0 {
		t.Errorf("no counter records: %v", kinds)
	}
	if kinds["i"] == 0 || kinds["M"] == 0 {
		t.Errorf("missing instants or metadata: %v", kinds)
	}
}

// TestChromeStreamSinkDeterministic streams the same run twice and
// requires byte-identical documents.
func TestChromeStreamSinkDeterministic(t *testing.T) {
	stream := func() []byte {
		var buf bytes.Buffer
		sink := NewChromeStreamSink(&buf)
		o := attribOptions(Pcl)
		o.Sink = sink
		if _, err := Run(o); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return buf.Bytes()
	}
	if one, two := stream(), stream(); !bytes.Equal(one, two) {
		t.Fatal("streamed trace differs across identical runs")
	}
}
