package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// The driver (the parent process) starts every workload in a fresh child
// of the same binary, one at a time, so heap state and peak RSS do not
// leak between workloads, and kills a child that outlives its limit:
// ftckpt.Run cannot be cancelled from inside.

// outcome is everything a child reported before it exited or was killed.
type outcome struct {
	setupS    []float64
	iters     []iterRecord
	vals      values
	spans     []Span
	peakRSSMB float64
	err       string // the child gave up, crashed or was killed by the watchdog
}

// spawn runs one child under the watchdog.
func spawn(spec childSpec, limit time.Duration) outcome {
	exe, err := os.Executable()
	if err != nil {
		return outcome{err: err.Error()}
	}
	cmd := exec.Command(exe,
		"-child", spec.mode,
		"-workload", spec.workload,
		"-seed", strconv.FormatInt(spec.env.seed, 10),
		"-scale", spec.env.sc.name,
		"-iterations", strconv.Itoa(spec.iterations),
		"-setups", strconv.Itoa(spec.setups),
		"-out", spec.outDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return outcome{err: err.Error()}
	}
	if err := cmd.Start(); err != nil {
		return outcome{err: err.Error()}
	}
	var out outcome
	var killed atomic.Bool
	watchdog := time.AfterFunc(limit, func() {
		killed.Store(true)
		cmd.Process.Kill()
	})
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 64<<20) // a spans record is one long line
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			out.err = "unreadable record: " + err.Error()
			continue
		}
		switch {
		case rec.Error != "":
			out.err = rec.Error
		case rec.Setup != nil:
			out.setupS = append(out.setupS, *rec.Setup)
		case rec.Iter != nil:
			out.iters = append(out.iters, *rec.Iter)
		}
		if rec.Values != nil {
			out.vals = rec.Values
			out.spans = rec.Spans
		}
	}
	werr := cmd.Wait()
	watchdog.Stop()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	switch {
	case killed.Load():
		out.err = fmt.Sprintf("killed by the watchdog after %v", limit)
	case werr != nil && out.err == "":
		out.err = werr.Error()
	}
	return out
}

// WorkloadResult is one workload's line of the results document.
type WorkloadResult struct {
	Name        string             `json:"name"`
	EndToEnd    map[string]Summary `json:"end_to_end"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailFrac    float64            `json:"fail_frac"`
	Failures    []string           `json:"failures,omitempty"`
	Fingerprint string             `json:"sim_fingerprint"`
	PerLayer    values             `json:"per_layer,omitempty"`
}

// account counts the ops of an outcome: an op fails by its own error, by
// simulated statistics that differ from the same op of the first
// iteration, or by never running because the child died — planned is how
// many iterations were meant to run.
func account(res *WorkloadResult, o outcome, planned int) {
	opsPerIter := 1
	for i, it := range o.iters {
		opsPerIter = len(it.Runs)
		res.Attempted += len(it.Runs)
		for j, r := range it.Runs {
			switch {
			case r.Err != "":
				res.Failed++
				res.Failures = append(res.Failures, fmt.Sprintf("iteration %d, %s: %s", i, r.Label, r.Err))
			case i > 0 && j < len(o.iters[0].Runs) && o.iters[0].Runs[j].Err == "" && r.Stats != o.iters[0].Runs[j].Stats:
				res.Failed++
				res.Failures = append(res.Failures, fmt.Sprintf("iteration %d, %s: simulated statistics differ from iteration 0:\n  %s\n  %s",
					i, r.Label, r.Stats, o.iters[0].Runs[j].Stats))
			}
		}
	}
	if o.err != "" {
		lost := planned - len(o.iters)
		if lost < 1 {
			lost = 1
		}
		res.Attempted += lost * opsPerIter
		res.Failed += lost * opsPerIter
		res.Failures = append(res.Failures, o.err)
	}
	if len(o.iters) > 0 {
		res.Fingerprint = fingerprint(o.iters[0].Runs)
	}
	if res.Attempted > 0 {
		res.FailFrac = float64(res.Failed) / float64(res.Attempted)
	}
}

// summarizeTimed turns the records of a timed child into the end-to-end
// metrics: one sample per iteration, one per set-up.
func summarizeTimed(name string, o outcome, planned int) WorkloadResult {
	res := WorkloadResult{Name: name, EndToEnd: map[string]Summary{}}
	account(&res, o, planned)
	samples := map[string][]float64{}
	for _, it := range o.iters {
		msgs := float64(it.msgs())
		if msgs == 0 {
			continue // every op failed; counted above
		}
		samples["wall_s"] = append(samples["wall_s"], it.Wall)
		samples["us_per_msg"] = append(samples["us_per_msg"], it.Wall*1e6/msgs)
		samples["allocs_per_msg"] = append(samples["allocs_per_msg"], float64(it.Mallocs)/msgs)
		samples["alloc_mb"] = append(samples["alloc_mb"], float64(it.AllocBytes)/(1<<20))
		if it.PeakRSSMB > 0 {
			samples["peak_rss_mb"] = append(samples["peak_rss_mb"], it.PeakRSSMB)
		}
	}
	if len(samples["peak_rss_mb"]) == 0 && o.peakRSSMB > 0 {
		// No per-iteration high-water mark on this kernel: fall back to
		// the child's ru_maxrss, which includes the set-up.
		samples["peak_rss_mb"] = []float64{o.peakRSSMB}
	}
	samples["setup_s"] = o.setupS
	for _, d := range endToEnd {
		res.EndToEnd[d.Name] = summarize(d.Unit, samples[d.Name])
	}
	return res
}

// limits bound a child's host time: four times what the reference host
// needs, and never past the deadline of the whole invocation.
type limits struct{ deadline time.Time }

func (l limits) of(expected time.Duration) time.Duration {
	d := 4 * expected
	if !l.deadline.IsZero() {
		if left := time.Until(l.deadline); left < d {
			d = left
		}
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

// expectedLayers is the wall of the layers pass on the reference host,
// without and with the ratios that pair the largest runs.
const (
	expectedLayers     = 30 * time.Second
	expectedLayersFull = 75 * time.Second
)

func timedSpec(wl workload, e env, iterations, setups int) (childSpec, time.Duration) {
	return childSpec{mode: "timed", workload: wl.name, env: e, iterations: iterations, setups: setups},
		time.Duration(setups)*wl.expectSetup + time.Duration(iterations)*wl.expectIter
}
