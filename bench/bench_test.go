package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own child process: the
// driver re-executes os.Executable() with -child, and that is this binary.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-child" {
			main()
			return
		}
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables in
// metrics.go and workloads.go: same names, units, directions and bounds,
// in the same order, with the FullOnly ratios left out.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the table %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the table %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	var want []metricDef
	for _, d := range perLayer {
		if !d.FullOnly {
			want = append(want, d)
		}
	}
	if len(b.PerLayer) != len(want) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(b.PerLayer), len(want))
	}
	for i, d := range want {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the table %+v", i, got, d)
		}
	}
	if want := time.Duration(b.RunSeconds) * time.Second; want < workloads[0].expectIter {
		t.Errorf("run_seconds %d is shorter than one %s iteration", b.RunSeconds, workloads[0].name)
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// TestSmoke runs the whole benchmark at the smoke scale — every workload,
// probe and ratio, through real child processes — and checks that each
// metric is emitted exactly once where it belongs, is finite, and that
// nothing failed.  The numbers themselves mean nothing at this scale.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes for several seconds")
	}
	out := t.TempDir()
	e := env{seed: 1, sc: scales["smoke"], jobs: benchJobs()}
	if !runAll(e, out, false) {
		t.Error("the smoke run reported a failed correctness check")
	}
	doc, err := readResults(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("results hold %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if w.FailFrac != 0 || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: fail_frac %v (%d of %d): %v", w.Name, w.FailFrac, w.Failed, w.Attempted, w.Failures)
		}
		if w.Fingerprint == "" {
			t.Errorf("%s: no sim_fingerprint", w.Name)
		}
		if len(w.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(w.EndToEnd), len(endToEnd))
		}
		for _, d := range endToEnd {
			s := w.EndToEnd[d.Name]
			if s.N < 1 || !finite(s.Median) || s.Median <= 0 || s.Unit != d.Unit {
				t.Errorf("%s %s: %+v", w.Name, d.Name, s)
			}
		}
		var cpu float64
		for _, d := range perLayer {
			v, inWorkload := w.PerLayer[d.Name]
			l, inLayers := doc.Layers[d.Name]
			if inWorkload == inLayers || inWorkload != d.PerWorkload {
				t.Errorf("%s %s: in the workload's ledger %v, in the shared one %v, per-workload metric %v", w.Name, d.Name, inWorkload, inLayers, d.PerWorkload)
				continue
			}
			if inLayers {
				v = l
			}
			if !finite(v.Value) || v.Unit != d.Unit {
				t.Errorf("%s %s: %+v", w.Name, d.Name, v)
			}
			if strings.HasSuffix(d.Name, ".cpu_frac") && !strings.HasPrefix(d.Name, "go.gc") &&
				!strings.HasPrefix(d.Name, "go.handoff") && !strings.HasPrefix(d.Name, "go.alloc") {
				cpu += v.Value
			}
		}
		if math.Abs(cpu-1) > 0.01 {
			t.Errorf("%s: the cpu_frac buckets sum to %v, want 1", w.Name, cpu)
		}
		if n := len(w.PerLayer) + len(doc.Layers); n != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, the table defines %d", w.Name, n, len(perLayer))
		}
	}
	for _, f := range []string{"trace.json", workloads[0].name + ".cpu.pprof"} {
		if st, err := os.Stat(filepath.Join(out, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", f, err)
		}
	}

	// A results file compared with itself regresses nowhere.
	var table bytes.Buffer
	regressed, err := compareFiles(&table, filepath.Join(out, "results.json"), filepath.Join(out, "results.json"))
	if err != nil || regressed {
		t.Errorf("self-compare: regressed=%v err=%v\n%s", regressed, err, table.String())
	}

	// The acceptance driver's interface: one workload, exactly the
	// metrics BENCHMARK.json names for that mode.
	b := readBenchmarkJSON(t)
	wl := workloads[2] // recover-hier-64: kills, sinks, the hierarchy
	res, metrics := measureOne(wl, e, time.Second, false, out)
	if res.Failed != 0 || len(metrics) != len(b.EndToEnd) {
		t.Errorf("untraced run: %d failed, %d metrics, want %d: %v", res.Failed, len(metrics), len(b.EndToEnd), res.Failures)
	}
	for _, m := range b.EndToEnd {
		if v, ok := metrics[m.Name]; !ok || !finite(v.Value) || v.Value <= 0 || v.Unit != m.Unit {
			t.Errorf("untraced run: %s = %+v (present %v)", m.Name, v, ok)
		}
	}
	res, metrics = measureOne(wl, e, time.Second, true, out)
	if res.Failed != 0 || len(metrics) != len(b.PerLayer) {
		t.Errorf("traced run: %d failed, %d metrics, want %d: %v", res.Failed, len(metrics), len(b.PerLayer), res.Failures)
	}
	for _, m := range b.PerLayer {
		if v, ok := metrics[m.Name]; !ok || !finite(v.Value) || v.Unit != m.Unit {
			t.Errorf("traced run: %s = %+v (present %v)", m.Name, v, ok)
		}
	}
}

// TestSummarize checks the median/quartile helper against the values
// Python's statistics.quantiles(values, n=4) gives.
func TestSummarize(t *testing.T) {
	cases := []struct {
		in              []float64
		q1, median, q3  float64
		min, max, count float64
	}{
		{[]float64{5}, 5, 5, 5, 5, 5, 1},
		{[]float64{3, 1, 2}, 1, 2, 3, 1, 3, 3},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75, 1, 4, 4},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25, 1, 10, 10},
		{[]float64{2, 4, 4, 5, 7, 9, 10, 12, 12, 30}, 4, 8, 12, 2, 30, 10},
	}
	for _, c := range cases {
		s := summarize("s", c.in)
		if s.Q1 != c.q1 || s.Median != c.median || s.Q3 != c.q3 || s.Min != c.min || s.Max != c.max || float64(s.N) != c.count {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.in, s, c.q1, c.median, c.q3)
		}
	}
	if s := summarize("s", nil); s.N != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

// TestVerdict is the table of -compare's three outcomes.
func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	tight := func(m float64) Summary { return Summary{N: 5, Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	wide := func(m float64) Summary { return Summary{N: 5, Median: m, Q1: m * 0.90, Q3: m * 1.10} }
	cases := []struct {
		name string
		d    metricDef
		a, b Summary
		want string
	}{
		{"unchanged", lower, tight(10), tight(10.2), verdictOK},
		{"faster", lower, tight(10), tight(7), verdictOK},
		{"slower than the bound", lower, tight(10), tight(11.5), verdictRegressed},
		{"just inside the bound", lower, tight(10), tight(10.9), verdictOK},
		{"slower but the spread hides it", lower, wide(10), wide(11.5), verdictUnresolved},
		{"unchanged but too noisy to say so", lower, tight(10), wide(10), verdictUnresolved},
		{"higher is better: lower regresses", higher, tight(10), tight(8), verdictRegressed},
		{"higher is better: higher is fine", higher, tight(10), tight(12), verdictOK},
		{"no samples", lower, tight(10), Summary{}, verdictUnresolved},
		{"slower, but one sample has no spread", lower, tight(10), Summary{N: 1, Median: 13, Q1: 13, Q3: 13}, verdictUnresolved},
		{"one sample inside the bound", lower, tight(10), Summary{N: 1, Median: 10.5, Q1: 10.5, Q3: 10.5}, verdictOK},
	}
	for _, c := range cases {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestAccountCountsLostAndDivergentOps covers the two failures no single
// op reports: a child that died, and a repeat whose simulated statistics
// differ.
func TestAccountCountsLostAndDivergentOps(t *testing.T) {
	iter := func(stats ...string) iterRecord {
		var it iterRecord
		for _, s := range stats {
			it.Runs = append(it.Runs, simRun{Label: "op", Stats: s})
		}
		return it
	}
	var res WorkloadResult
	account(&res, outcome{iters: []iterRecord{iter("a", "b"), iter("a", "X")}}, 2)
	if res.Attempted != 4 || res.Failed != 1 {
		t.Errorf("divergent repeat: %d failed of %d, want 1 of 4", res.Failed, res.Attempted)
	}
	res = WorkloadResult{}
	account(&res, outcome{iters: []iterRecord{iter("a", "b", "c")}, err: "killed by the watchdog"}, 4)
	if res.Attempted != 12 || res.Failed != 9 {
		t.Errorf("killed child: %d failed of %d, want 9 of 12", res.Failed, res.Attempted)
	}
	res = WorkloadResult{}
	account(&res, outcome{err: "set-up failed"}, 3)
	if res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("child that never iterated: %d failed of %d", res.Failed, res.Attempted)
	}
}
