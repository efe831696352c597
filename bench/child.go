package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ftckpt"
)

// A child process runs one workload (or the layers pass) and streams
// records to its parent, one JSON object per line, as it goes: what was
// finished before the watchdog fired is kept.

type record struct {
	Setup  *float64    `json:"setup_s,omitempty"` // set-up finished, host s
	Iter   *iterRecord `json:"iter,omitempty"`    // one iteration finished
	Values values      `json:"values,omitempty"`  // per-layer measurements
	Spans  []Span      `json:"spans,omitempty"`
	Error  string      `json:"error,omitempty"` // the child gives up
}

// iterRecord is one iteration: its host wall, the Go allocator's deltas
// over it, and its ops.
type iterRecord struct {
	Wall       float64  `json:"wall_s"`
	Mallocs    uint64   `json:"mallocs"`
	AllocBytes uint64   `json:"alloc_bytes"`
	PeakRSSMB  float64  `json:"peak_rss_mb,omitempty"` // 0 when the kernel cannot reset the high-water mark
	Runs       []simRun `json:"runs"`
}

func (it iterRecord) msgs() int64 {
	var n int64
	for _, r := range it.Runs {
		n += r.Msgs
	}
	return n
}

// childSpec tells a child what to do.
type childSpec struct {
	mode       string // "timed", "trace", "layers" or "layers-full"
	workload   string
	env        env
	iterations int    // timed: how many iterations to measure
	setups     int    // timed: how many times to set up (each is a setup_s sample)
	outDir     string // trace: where the CPU profile goes
}

// runChild executes spec and writes records to w.  A returned error has
// already been sent as an Error record.
func runChild(spec childSpec, w io.Writer) error {
	enc := json.NewEncoder(w)
	err := func() error {
		switch spec.mode {
		case "layers", "layers-full":
			tr := &tracer{workload: "layers"}
			v, err := measureLayers(tr, spec.env, spec.mode == "layers-full")
			if err != nil {
				return err
			}
			return enc.Encode(record{Values: v, Spans: tr.spans})
		case "timed", "trace":
			wl, ok := findWorkload(spec.workload)
			if !ok {
				return fmt.Errorf("unknown workload %q", spec.workload)
			}
			if spec.mode == "timed" {
				return childTimed(wl, spec, enc)
			}
			return childTrace(wl, spec, enc)
		}
		return fmt.Errorf("unknown child mode %q", spec.mode)
	}()
	if err != nil {
		enc.Encode(record{Error: err.Error()})
	}
	return err
}

// setUp runs a workload's set-up under the clock and reports setup_s.
func setUp(wl workload, spec childSpec, tr *tracer, enc *json.Encoder) (func(*tracer) []simRun, error) {
	end := tr.start("set-up")
	t := time.Now()
	iterate, err := wl.setup(spec.env)
	s := time.Since(t).Seconds()
	end()
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	return iterate, enc.Encode(record{Setup: &s})
}

// measureIter runs one iteration between two allocator readings.  The
// collection before the clock starts gives every iteration the same heap
// to begin from.
func measureIter(tr *tracer, i int, iterate func(*tracer) []simRun) iterRecord {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resetOK := resetPeakRSS()
	end := tr.start(fmt.Sprintf("iteration %d", i))
	t := time.Now()
	runs := iterate(tr)
	wall := time.Since(t).Seconds()
	end()
	runtime.ReadMemStats(&m1)
	it := iterRecord{Wall: wall, Mallocs: m1.Mallocs - m0.Mallocs, AllocBytes: m1.TotalAlloc - m0.TotalAlloc, Runs: runs}
	if resetOK {
		it.PeakRSSMB = peakRSSMB()
	}
	return it
}

// resetPeakRSS resets the process's resident-set high-water mark (Linux:
// writing 5 to /proc/self/clear_refs), so that peakRSSMB afterwards reads
// the peak of one iteration, not of the whole child.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM from /proc/self/status; 0 if it is not there.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb)
			return kb / 1024
		}
	}
	return 0
}

// childTimed is the end-to-end pass: tracing and profiling off, a fixed
// number of iterations.  Setting up more than once only adds setup_s
// samples (the first is a cold process, the later ones are not); the
// iterations use the last.
func childTimed(wl workload, spec childSpec, enc *json.Encoder) error {
	var iterate func(*tracer) []simRun
	for i := 0; i < spec.setups; i++ {
		var err error
		if iterate, err = setUp(wl, spec, nil, enc); err != nil {
			return err
		}
	}
	for i := 0; i < spec.iterations; i++ {
		it := measureIter(nil, i, iterate)
		if err := enc.Encode(record{Iter: &it}); err != nil {
			return err
		}
	}
	return nil
}

// childTrace is the workload half of the traced pass: one plain iteration
// and one under runtime/pprof, whose profile is bucketed per package and
// whose registries give the layer counts.
func childTrace(wl workload, spec childSpec, enc *json.Encoder) error {
	tr := &tracer{workload: wl.name}
	endAll := tr.start(wl.name)
	iterate, err := setUp(wl, spec, tr, enc)
	if err != nil {
		return err
	}
	plain := measureIter(tr, 0, iterate)
	if err := enc.Encode(record{Iter: &plain}); err != nil {
		return err
	}

	if err := os.MkdirAll(spec.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spec.outDir, wl.name+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	profiled := measureIter(tr, 1, iterate)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&gc1)
	if err := f.Close(); err != nil {
		return err
	}
	endAll()
	if err := enc.Encode(record{Iter: &profiled}); err != nil {
		return err
	}

	prof, err := readProfile(path)
	if err != nil {
		return err
	}
	v := values{}
	layers, gc, handoff, alloc := cpuShares(prof)
	for _, l := range cpuLayers {
		v.set(l+".cpu_frac", layers[l])
	}
	v.set("go.gc_cpu_frac", gc)
	v.set("go.handoff_cpu_frac", handoff)
	v.set("go.alloc_cpu_frac", alloc)
	// One collection is the forced one measureIter starts from.
	v.set("go.gc_cycles", float64(gc1.NumGC-gc0.NumGC)-1)
	v.set("bench.trace_overhead_ratio", profiled.Wall/plain.Wall)
	layerCounts(profiled.Runs, v)
	return enc.Encode(record{Values: v, Spans: tr.spans})
}

// layerCounts reads the deterministic counters of an iteration's
// registries into the per-layer count metrics.
func layerCounts(runs []simRun, v values) {
	agg := ftckpt.NewMetrics()
	events := 0
	for _, r := range runs {
		agg.Merge(r.reg)
		events += r.Events
	}
	hist := func(name string) float64 {
		if h := agg.Hist(name); h != nil {
			return float64(h.Count)
		}
		return 0
	}
	v.set("simnet.flows", float64(agg.Counter("net.flows")))
	v.set("mpi.msgs", float64(agg.Counter("fabric.msgs")))
	v.set("core.markers", float64(agg.Counter("markers.sent")))
	v.set("core.logged_msgs", float64(agg.Counter("log.msgs")))
	v.set("ckpt.images", float64(agg.Counter("ckpt.local")))
	v.set("ckpt.image_mb", float64(agg.Counter("ckpt.image_bytes"))/(1<<20))
	v.set("ftpm.restarts", hist("restart.time"))
	v.set("ftpm.repairs", float64(agg.Counter("repairs")))
	v.set("ftpm.failovers", float64(agg.Counter("ckpt.failover")))
	v.set("obs.events", float64(events))
}
