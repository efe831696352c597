package ftckpt

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestChromeTraceDeterministic runs the same seeded job twice with the
// Chrome exporter attached and requires the exported Chrome timeline and metrics
// dump to be byte-identical — the reproducibility contract of the
// simulator extended to its observability artifacts.
func TestChromeTraceDeterministic(t *testing.T) {
	runOnce := func() ([]byte, []byte) {
		var trace, met bytes.Buffer
		sink := NewChromeStreamSink(&trace)
		o := Options{
			Workload: "jacobi",
			NP:       8,
			Protocol: "pcl",
			Interval: 40 * time.Millisecond,
			Seed:     7,
			Failures: []Failure{{At: 60 * time.Millisecond, Rank: 3}},
			Sink:     sink,
		}
		rep, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if err := rep.Metrics.WriteJSON(&met); err != nil {
			t.Fatal(err)
		}
		return trace.Bytes(), met.Bytes()
	}
	t1, m1 := runOnce()
	t2, m2 := runOnce()
	if !bytes.Equal(t1, t2) {
		t.Fatal("chrome trace differs between identical seeded runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("metrics dump differs between identical seeded runs")
	}

	// The trace must be well-formed and non-trivial: valid JSON, rank
	// tracks named, blocked-send spans present (pcl), a restart span from
	// the injected failure.
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(t1, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var blockedSpans, restartSpans int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch {
		case len(ev.Name) >= 7 && ev.Name[:7] == "blocked":
			blockedSpans++
			if ev.Dur < 0 {
				t.Fatalf("negative span duration: %+v", ev)
			}
		case len(ev.Name) >= 7 && ev.Name[:7] == "restart":
			restartSpans++
		}
	}
	if blockedSpans == 0 {
		t.Fatal("no per-rank blocked-send spans in a pcl trace")
	}
	if restartSpans == 0 {
		t.Fatal("no restart span despite an injected failure")
	}
}

// TestReportMetrics checks the facade surfaces the metrics registry and
// that the core schema keys are populated.
func TestReportMetrics(t *testing.T) {
	rep, err := Run(Options{
		Workload: "jacobi", NP: 4, Protocol: "vcl",
		Interval: 40 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if m == nil {
		t.Fatal("Report.Metrics nil")
	}
	if m.Counter("waves.committed") == 0 || m.Counter("markers.sent") == 0 {
		t.Fatal("wave counters empty")
	}
	if int(m.Counter("log.msgs")) != rep.LoggedMessages {
		t.Fatalf("log.msgs %d, report says %d", m.Counter("log.msgs"), rep.LoggedMessages)
	}
	if h := m.Hist("wave.cycle"); h == nil || h.Count == 0 {
		t.Fatal("wave.cycle histogram empty")
	}
}
