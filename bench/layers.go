package main

import (
	"fmt"
	"runtime"

	"ftckpt"
)

// measureLayers is the workload-independent half of the traced pass: the
// probes, then the differential ratios — with full, also the ratios that
// pair the largest runs (metricDef.FullOnly).
func measureLayers(tr *tracer, e env, full bool) (values, error) {
	v := values{}
	if err := runProbes(tr, e.sc, v); err != nil {
		return nil, err
	}
	if err := midRatios(tr, e, v); err != nil {
		return nil, err
	}
	if full {
		if err := bigRatios(tr, e, v); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// ratioRun times one whole run for a differential ratio, from a collected
// heap like every timed iteration.
func ratioRun(tr *tracer, label string, o ftckpt.Options) (float64, ftckpt.Report, error) {
	runtime.GC()
	rep, w, err := timeRun(tr, label, o)
	if err != nil {
		return 0, rep, fmt.Errorf("ratio run %s: %w", label, err)
	}
	return w, rep, nil
}

// midRatios measures, at the mid size, what only a pair of whole runs can
// show: a protocol's wall over the same run without it, the sharded kernel
// against the sequential one, and the sinks' tax — whose collected event
// stream then feeds the two replay probes.
func midRatios(tr *tracer, e env, v values) error {
	defer tr.start("ratios mid")()
	wall := func(label string, o ftckpt.Options) (float64, ftckpt.Report, error) { return ratioRun(tr, label, o) }

	mid := func(p ftckpt.Protocol) ftckpt.Options { return btOpts(p, e.sc.npMid, e.seed) }
	none, _, err := wall("none mid", mid(ftckpt.ProtocolNone))
	if err != nil {
		return err
	}
	var pcl float64
	for _, p := range []ftckpt.Protocol{ftckpt.Pcl, ftckpt.Vcl, ftckpt.Mlog} {
		w, _, err := wall(string(p)+" mid", mid(p))
		if err != nil {
			return err
		}
		if p == ftckpt.Pcl {
			pcl = w
		}
		v.set(fmt.Sprintf("core.%s.wall_ratio_256", p), w/none)
	}

	sharded := mid(ftckpt.Pcl)
	sharded.Shards = 2
	w, _, err := wall("pcl mid shards=2", sharded)
	if err != nil {
		return err
	}
	v.set("sim.shard2_wall_ratio", w/pcl)

	sinks := observed(mid(ftckpt.Pcl))
	w, rep, err := wall("pcl mid sinks on", sinks)
	if err != nil {
		return err
	}
	v.set("obs.sink_wall_ratio", w/pcl)
	endReplay := tr.start("probe obs/span replay")
	chromeNs, spanNs, err := sinkReplay(sinks.Sink.(*ftckpt.Collector).Events(), sinks.NP, rep.Completion)
	endReplay()
	if err != nil {
		return err
	}
	v.set("obs.chrome_ns_per_event", chromeNs)
	v.set("span.build_ns_per_event", spanNs)
	return nil
}

// bigRatios pairs the largest runs: the marker flood's cost per marker
// (Pcl minus no protocol at the big size) and the sweep pool's speedup on
// figures-quick, whose one-job pass also gives the per-harness walls.
func bigRatios(tr *tracer, e env, v values) error {
	defer tr.start("ratios big")()
	wall := func(label string, o ftckpt.Options) (float64, ftckpt.Report, error) { return ratioRun(tr, label, o) }
	big := func(p ftckpt.Protocol) ftckpt.Options { return btOpts(p, e.sc.npBig, e.seed) }
	bigNone, _, err := wall("none big", big(ftckpt.ProtocolNone))
	if err != nil {
		return err
	}
	bigPcl, rep, err := wall("pcl big", big(ftckpt.Pcl))
	if err != nil {
		return err
	}
	markers := rep.Metrics.Counter("markers.sent")
	if markers == 0 {
		return fmt.Errorf("pcl big sent no markers")
	}
	v.set("core.pcl.flood_us_per_marker", (bigPcl-bigNone)*1e6/float64(markers))

	figures := func(jobs int, record bool) (float64, error) {
		runtime.GC()
		var total float64
		for _, f := range e.sc.figs {
			r := runFigure(tr, f, e.seed, jobs)
			if r.Err != "" {
				return 0, fmt.Errorf("fig %s at %d jobs: %s", f, jobs, r.Err)
			}
			if record {
				v.set("expt.fig_wall_s."+f, r.Wall)
			}
			total += r.Wall
		}
		return total, nil
	}
	seq, err := figures(1, true)
	if err != nil {
		return err
	}
	for _, f := range figNames { // harnesses a reduced scale skips
		if _, ok := v["expt.fig_wall_s."+f]; !ok {
			v.set("expt.fig_wall_s."+f, 0)
		}
	}
	par, err := figures(e.jobs, false)
	if err != nil {
		return err
	}
	v.set("sweep.speedup_jobs", seq/par)
	return nil
}
