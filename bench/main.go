// Command bench is the benchmark of this repository: four named workloads
// run through the public entry points (ftckpt.Run, the internal/expt
// harnesses), end-to-end metrics measured with tracing off, and a separate
// traced pass that fills a per-layer ledger from outside the packages.
// See README.md in this directory.
//
//	bash bench/run.sh                       # everything, ≈ 5 min on 2 cores
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1   # one run, result as the last line
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print one JSON result as the last line (the acceptance driver's interface)")
		seed         = flag.Int64("seed", 1, "seed of the simulator options and of the benchmark's choice of kill victims")
		seconds      = flag.Float64("seconds", 20, "with -workload: measure as many iterations as fit this long on the reference host (at least one)")
		trace        = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics with tracing off, 1 = the per-layer metrics of the traced pass")
		scaleName    = flag.String("scale", "full", "full, or smoke (tiny sizes for the unit test; numbers mean nothing)")
		outDir       = flag.String("out", "bench/out", "directory for results.json, trace.json and the CPU profiles")
		reverse      = flag.Bool("reverse", false, "run the workloads in reverse order")
		compare      = flag.Bool("compare", false, "compare two results.json files given as arguments: A (parent) then B (change)")
		child        = flag.String("child", "", "internal: run as a child process (timed, trace, layers or layers-full)")
		iterations   = flag.Int("iterations", 0, "internal: iteration count of a timed child")
		setups       = flag.Int("setups", 1, "internal: set-up count of a timed child")
	)
	flag.Parse()
	sc, ok := scales[*scaleName]
	if !ok {
		fatal(fmt.Errorf("unknown -scale %q", *scaleName))
	}
	e := env{seed: *seed, sc: sc, jobs: benchJobs()}

	switch {
	case *child != "":
		spec := childSpec{mode: *child, workload: *workloadName, env: e, iterations: *iterations, setups: *setups, outDir: *outDir}
		if runChild(spec, os.Stdout) != nil {
			os.Exit(1)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results files: A.json B.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *workloadName != "":
		wl, ok := findWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("-trace must be 0 or 1"))
		}
		runOne(wl, e, time.Duration(*seconds*float64(time.Second)), *trace == 1, *outDir)
	default:
		if !runAll(e, *outDir, *reverse) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// contractResult is the object the acceptance driver reads from the last
// line of standard output.
type contractResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// runOne is the acceptance driver's interface: one workload, one result
// object as the last line of standard output.  It always exits 0 once it
// has a result to print; a failed check shows as "correct": false.
func runOne(wl workload, e env, budget time.Duration, traced bool, outDir string) {
	res, metrics := measureOne(wl, e, budget, traced, outDir)
	fmt.Printf("%s seed=%d sim_fingerprint=%s\n", wl.name, e.seed, res.Fingerprint)
	for _, f := range res.Failures {
		fmt.Println("FAILED:", f)
	}
	line, err := json.Marshal(contractResult{
		Correct:   res.Failed == 0 && res.Attempted > 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// measureOne makes the one run of runOne: untraced, the end-to-end
// metrics (medians over the iterations); traced, every per-layer metric
// that is not FullOnly.
func measureOne(wl workload, e env, budget time.Duration, traced bool, outDir string) (WorkloadResult, map[string]Value) {
	lim := limits{deadline: time.Now().Add(170 * time.Second)} // the driver allows 180 s
	if !traced {
		// A fixed amount of work, not of time: a slow host then measures
		// the same iterations for longer instead of fewer of them.
		n := int(budget / wl.expectIter)
		if n < 1 {
			n = 1
		}
		spec, expected := timedSpec(wl, e, n, 1)
		res := summarizeTimed(wl.name, spawn(spec, lim.of(expected)), n)
		metrics := map[string]Value{}
		for _, d := range endToEnd {
			if s := res.EndToEnd[d.Name]; s.N > 0 {
				metrics[d.Name] = Value{Value: s.Median, Unit: d.Unit}
			}
		}
		return res, metrics
	}
	res, spans := tracedPass(wl, e, lim, outDir)
	layers := spawn(childSpec{mode: "layers", env: e}, lim.of(expectedLayers))
	if layers.err != "" {
		res.Attempted++
		res.Failed++
		res.Failures = append(res.Failures, "layers pass: "+layers.err)
	}
	for name, v := range layers.vals {
		res.PerLayer[name] = v
	}
	if err := writeChromeTrace(filepath.Join(outDir, "trace.json"), [][]Span{spans, layers.spans}); err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	return res, res.PerLayer
}

// tracedPass runs a workload's trace child and returns its per-workload
// layer metrics and spans.  Its ops are accounted like timed ones: a
// failure while looking is still a failure.
func tracedPass(wl workload, e env, lim limits, outDir string) (WorkloadResult, []Span) {
	// Set-up, one plain and one profiled iteration, then reading the profile.
	expected := wl.expectSetup + 2*wl.expectIter + 2*time.Second
	o := spawn(childSpec{mode: "trace", workload: wl.name, env: e, outDir: outDir}, lim.of(expected))
	res := WorkloadResult{Name: wl.name, PerLayer: values{}}
	account(&res, o, 2)
	for name, v := range o.vals {
		res.PerLayer[name] = v
	}
	return res, o.spans
}

// Env records where and how a results document was measured.
type Env struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
	Jobs       int    `json:"jobs"`
}

// Results is the document a full run writes and -compare reads.
type Results struct {
	Env       Env              `json:"env"`
	Workloads []WorkloadResult `json:"workloads"`
	// Layers holds the probes and ratios, which do not depend on the
	// workload and are measured once.
	Layers values `json:"layers"`
}

func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

// fullRunSetups is how often a full run sets each workload up: three
// setup_s samples give -compare a median and a spread.  A single
// -workload run sets up once; the acceptance driver takes its median over
// ten such runs.
const fullRunSetups = 3

// runAll is the whole benchmark: the timed pass over every workload, then
// the traced pass, then the report.  It returns false if any check failed.
func runAll(e env, outDir string, reverse bool) bool {
	order := append([]workload(nil), workloads...)
	if reverse {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	doc := Results{Env: Env{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: e.seed, Scale: e.sc.name, Jobs: e.jobs}}
	ok := true
	var lim limits

	fmt.Printf("bench: seed %d, scale %s, %d cpus, GOMAXPROCS %d, %s, commit %s\n",
		e.seed, e.sc.name, doc.Env.CPUs, doc.Env.GOMAXPROCS, doc.Env.GoVersion, doc.Env.Commit)
	fmt.Println("\n== timed pass (tracing and profiling off; host time unless labelled virtual) ==")
	for _, wl := range order {
		n := wl.iterations
		if e.sc.name == "smoke" {
			n = 1
		}
		spec, expected := timedSpec(wl, e, n, fullRunSetups)
		res := summarizeTimed(wl.name, spawn(spec, lim.of(expected)), n)
		printEndToEnd(res)
		ok = ok && res.Failed == 0 && res.Attempted > 0
		doc.Workloads = append(doc.Workloads, res)
	}

	fmt.Println("\n== traced pass (one plain and one profiled iteration per workload, then probes and ratios) ==")
	var spans [][]Span
	for i, wl := range order {
		res, sp := tracedPass(wl, e, lim, outDir)
		spans = append(spans, sp)
		doc.Workloads[i].PerLayer = res.PerLayer
		doc.Workloads[i].Failures = append(doc.Workloads[i].Failures, res.Failures...)
		fmt.Printf("\n%s  (profile: %s)\n", wl.name, filepath.Join(outDir, wl.name+".cpu.pprof"))
		printValues(res.PerLayer, true)
		for _, f := range res.Failures {
			fmt.Println("  FAILED:", f)
		}
		ok = ok && res.Failed == 0 && res.Attempted > 0
	}
	layers := spawn(childSpec{mode: "layers-full", env: e}, lim.of(expectedLayersFull))
	spans = append(spans, layers.spans)
	doc.Layers = layers.vals
	fmt.Println("\nlayers  (probes and ratios, measured once)")
	printValues(layers.vals, false)
	if layers.err != "" {
		fmt.Println("  FAILED:", layers.err)
		ok = false
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	if err := writeChromeTrace(filepath.Join(outDir, "trace.json"), spans); err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote %s and %s\n", filepath.Join(outDir, "results.json"), filepath.Join(outDir, "trace.json"))
	if !ok {
		fmt.Println("bench: FAILED — at least one correctness check did not hold")
	}
	return ok
}

func printEndToEnd(res WorkloadResult) {
	fmt.Printf("\n%s  sim_fingerprint=%s\n", res.Name, res.Fingerprint)
	for _, d := range endToEnd {
		s := res.EndToEnd[d.Name]
		fmt.Printf("  %-16s %-6s median %-12.6g min %-12.6g q1 %-12.6g q3 %-12.6g max %-12.6g n=%d\n",
			d.Name, d.Unit, s.Median, s.Min, s.Q1, s.Q3, s.Max, s.N)
	}
	fmt.Printf("  %-16s %-6s %.6g (%d failed of %d ops)\n", "fail_frac", "ratio", res.FailFrac, res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}
}

// printValues lists the per-workload (or the shared) per-layer metrics in
// table order, marking one that was not measured.
func printValues(v values, perWorkload bool) {
	for _, d := range perLayer {
		if d.PerWorkload != perWorkload {
			continue
		}
		if x, ok := v[d.Name]; ok {
			fmt.Printf("  %-32s %-6s %.6g\n", d.Name, d.Unit, x.Value)
		} else {
			fmt.Printf("  %-32s %-6s not measured\n", d.Name, d.Unit)
		}
	}
}
