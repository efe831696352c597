package main

// metricDef names one metric of the benchmark.  The two tables below are
// the single definition: BENCHMARK.json lists the same names (bench_test.go
// checks it), -compare reads the bounds from here, and the printers walk
// them in this order.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median it may worsen by (end-to-end only)
	// FullOnly marks a per-layer ratio that needs pairs of the largest
	// runs: a full run measures it, a single -workload run (whose time the
	// acceptance driver caps) does not, and BENCHMARK.json leaves it out.
	FullOnly bool
	// PerWorkload marks a per-layer metric measured on the workload's own
	// profiled iteration (counts, CPU shares, the cost of looking) rather
	// than by a workload-independent probe or ratio.
	PerWorkload bool
}

// endToEnd are the metrics measured with tracing and profiling off, one
// sample per timed iteration (setup_s and peak_rss_mb: one per child).
// fail_frac is the seventh end-to-end metric; it is carried by the
// attempted/failed counts because a ratio that is normally 0 has no
// relative bound.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "us_per_msg", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_msg", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// figNames are the nine expt harnesses of figures-quick, in the order
// `figures -fig all` runs them.
var figNames = []string{"netpipe", "5", "6", "7", "8", "9", "10", "recovery", "storage"}

// cpuLayers are the buckets a CPU sample can be charged to: the package of
// its innermost ftckpt frame ("other" for the facade and the packages with
// no row of their own), or "go" when the stack holds no ftckpt frame.
var cpuLayers = []string{"sim", "simnet", "mpi", "core", "ckpt", "ftpm", "nas", "obs", "span", "sweep", "expt", "other", "go"}

// perLayer are the metrics of the traced pass.  Probes and ratios do not
// depend on the workload; counts and *.cpu_frac do.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "sim.event_ns_pop1k", Unit: "ns"},
		{Name: "sim.event_ns_pop1m", Unit: "ns"},
		{Name: "sim.event_allocs", Unit: "count"},
		{Name: "sim.cancel_ns", Unit: "ns"},
		{Name: "sim.advance_ns", Unit: "ns"},
		{Name: "sim.cond_pingpong_ns", Unit: "ns"},
		{Name: "sim.lp_spawn_us", Unit: "us"},
		{Name: "sim.shard2_wall_ratio", Unit: "ratio"},
		{Name: "simnet.small_msg_ns", Unit: "ns"},
		{Name: "simnet.bulk_msg_ns", Unit: "ns"},
		{Name: "simnet.flow_ns_1k", Unit: "ns"},
		{Name: "simnet.flows", Unit: "count", PerWorkload: true},
		{Name: "mpi.pingpong_ns", Unit: "ns"},
		{Name: "mpi.match_deep_ns", Unit: "ns"},
		{Name: "mpi.allreduce_us_np64", Unit: "us"},
		{Name: "mpi.fabric_flood_ns", Unit: "ns"},
		{Name: "mpi.msgs", Unit: "count", PerWorkload: true},
		{Name: "core.pcl.wall_ratio_256", Unit: "ratio"},
		{Name: "core.vcl.wall_ratio_256", Unit: "ratio"},
		{Name: "core.mlog.wall_ratio_256", Unit: "ratio"},
		{Name: "core.pcl.flood_us_per_marker", Unit: "us", FullOnly: true},
		{Name: "core.markers", Unit: "count", PerWorkload: true},
		{Name: "core.logged_msgs", Unit: "count", PerWorkload: true},
		{Name: "ckpt.encode_ns_per_kb", Unit: "ns"},
		{Name: "ckpt.decode_ns_per_kb", Unit: "ns"},
		{Name: "ckpt.group_store_us", Unit: "us"},
		{Name: "ckpt.group_fetch_us", Unit: "us"},
		{Name: "ckpt.hier_cycle_us", Unit: "us"},
		{Name: "ckpt.images", Unit: "count", PerWorkload: true},
		{Name: "ckpt.image_mb", Unit: "MB", PerWorkload: true},
		{Name: "ftpm.launch_us_per_rank", Unit: "us"},
		{Name: "ftpm.restarts", Unit: "count", PerWorkload: true},
		{Name: "ftpm.repairs", Unit: "count", PerWorkload: true},
		{Name: "ftpm.failovers", Unit: "count", PerWorkload: true},
		{Name: "obs.sink_wall_ratio", Unit: "ratio"},
		{Name: "obs.events", Unit: "count", PerWorkload: true},
		{Name: "obs.chrome_ns_per_event", Unit: "ns"},
		{Name: "span.build_ns_per_event", Unit: "ns"},
		{Name: "sweep.speedup_jobs", Unit: "ratio", Better: "higher", FullOnly: true},
		{Name: "sweep.dispatch_us_per_point", Unit: "us"},
	}
	for _, f := range figNames {
		defs = append(defs, metricDef{Name: "expt.fig_wall_s." + f, Unit: "s", FullOnly: true})
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{Name: l + ".cpu_frac", Unit: "ratio", PerWorkload: true})
	}
	defs = append(defs,
		metricDef{Name: "go.gc_cpu_frac", Unit: "ratio", PerWorkload: true},
		metricDef{Name: "go.handoff_cpu_frac", Unit: "ratio", PerWorkload: true},
		metricDef{Name: "go.alloc_cpu_frac", Unit: "ratio", PerWorkload: true},
		metricDef{Name: "go.gc_cycles", Unit: "count", PerWorkload: true},
		metricDef{Name: "bench.trace_overhead_ratio", Unit: "ratio", PerWorkload: true},
	)
	for i := range defs {
		if defs[i].Better == "" {
			defs[i].Better = "lower"
		}
	}
	return defs
}

// Value is one measured per-layer number.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values maps metric names to measurements; set panics on a name the
// tables above do not define, so a probe cannot invent a metric.
type values map[string]Value

func (v values) set(name string, x float64) {
	for _, d := range perLayer {
		if d.Name == name {
			if _, dup := v[name]; dup {
				panic("bench: metric " + name + " measured twice")
			}
			v[name] = Value{Value: x, Unit: d.Unit}
			return
		}
	}
	panic("bench: undefined per-layer metric " + name)
}
