package main

// -bench-core / -bench-core-check: the hot-path core benchmark harness.
//
// -bench-core measures the simulator's end-to-end macro benchmark (one
// full fault-tolerant run per protocol and size, mirroring BenchmarkRun in
// bench_core_test.go — keep the two option sets in sync) plus the kernel
// event micro benchmark, and writes the numbers as a JSON document.  The
// committed BENCH_core.json keeps two such documents — the measurement
// before and after the event-queue/allocation overhaul — as the repo's
// recorded trajectory.
//
// -bench-core-check re-measures a smoke subset and fails (exit 1) when
// allocations regress more than 25% against the committed "after"
// document: wall-clock is hardware-noisy, so CI gates on allocs/op, which
// is deterministic for a deterministic simulator.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"ftckpt"
	"ftckpt/internal/failure"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
	"ftckpt/internal/obs"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
)

type corePoint struct {
	Bench string `json:"bench"`           // "kernel-events", "run" or "repair"
	Proto string `json:"proto,omitempty"` // run: protocol
	NP    int    `json:"np,omitempty"`    // run: process count
	// WallMS is the wall-clock of the whole measurement; NsPerOp the
	// per-event cost (kernel-events only).
	WallMS  float64 `json:"wall_ms"`
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// AllocsPerOp / BytesPerOp count heap allocations per op: per event
	// for kernel-events (fractional — the Go benchmark framework's
	// integer truncation hides sub-1 values), per full run for "run".
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	VirtS       float64 `json:"virt_s,omitempty"`
	Waves       int     `json:"waves,omitempty"`
	// RepairMS and Recovered belong to the "repair" bench point: the
	// virtual latency of one ULFM in-job repair, from the failure report
	// (EvProcFailed) to the world resuming (EvRepairEnd), and the
	// recovered-work fraction of the run.  Virtual numbers are exactly
	// reproducible, so drift in either means the repair path changed.
	RepairMS  float64 `json:"repair_ms,omitempty"`
	Recovered float64 `json:"recovered,omitempty"`
}

type coreDoc struct {
	Cmd    string      `json:"cmd"`
	Go     string      `json:"go"`
	CPUs   int         `json:"cpus"`
	MaxNP  int         `json:"max_np"`
	Points []corePoint `json:"points"`
}

// coreFile is the committed BENCH_core.json shape: the before/after pair
// recorded across the hot-path overhaul.
type coreFile struct {
	Before *coreDoc `json:"before,omitempty"`
	After  *coreDoc `json:"after,omitempty"`
}

// coreRunOpts mirrors benchRunOpts in bench_core_test.go.
func coreRunOpts(proto string, np int) ftckpt.Options {
	intervals := map[int]time.Duration{
		64:    8 * time.Second,
		256:   2 * time.Second,
		1024:  400 * time.Millisecond,
		4096:  8 * time.Second,
		16384: 8 * time.Second,
	}
	interval := intervals[np]
	if proto == "mlog" && np == 1024 {
		interval = 8 * time.Second
	}
	return ftckpt.Options{
		Workload:        ftckpt.WorkloadBT,
		Class:           ftckpt.ClassA,
		NP:              np,
		ProcsPerNode:    2,
		Protocol:        ftckpt.Protocol(proto),
		Interval:        interval,
		Servers:         4,
		Seed:            1,
		VclProcessLimit: -1,
	}
}

// measureKernelEvents mirrors BenchmarkKernelEvents: a steady population
// of 1024 pending timers, each firing rescheduling itself, measured over a
// fixed number of dispatches.
func measureKernelEvents() (corePoint, error) {
	const ops = 2_000_000
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	k := sim.New(1)
	remaining := ops
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			k.After(sim.Time(1+k.Rand().Intn(1000))*time.Microsecond, tick)
		}
	}
	for i := 0; i < 1024; i++ {
		k.After(sim.Time(1+k.Rand().Intn(1000))*time.Microsecond, tick)
	}
	if err := k.Run(); err != nil {
		return corePoint{}, fmt.Errorf("kernel-events: %w", err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return corePoint{
		Bench:       "kernel-events",
		WallMS:      float64(wall.Milliseconds()),
		NsPerOp:     float64(wall.Nanoseconds()) / ops,
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / ops,
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / ops,
	}, nil
}

// measureRun times one complete fault-tolerant run.
func measureRun(proto string, np int) (corePoint, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	rep, err := ftckpt.Run(coreRunOpts(proto, np))
	if err != nil {
		return corePoint{}, fmt.Errorf("run proto=%s np=%d: %w", proto, np, err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return corePoint{
		Bench:       "run",
		Proto:       proto,
		NP:          np,
		WallMS:      float64(wall.Nanoseconds()) / 1e6,
		AllocsPerOp: float64(m1.Mallocs - m0.Mallocs),
		BytesPerOp:  float64(m1.TotalAlloc - m0.TotalAlloc),
		VirtS:       rep.Completion.Seconds(),
		Waves:       rep.Waves,
	}, nil
}

// measureRepair times the in-job recovery point: a 256-process Jacobi
// under Pcl loses a whole node mid-run and the dispatcher splices a
// spare in, ULFM-style, instead of restarting.  The point records the
// run's allocations (gated like every other point), the virtual
// detection-to-resume repair latency, and the recovered-work fraction.
// It uses ftpm directly rather than the facade: the facade's Jacobi is
// sized for the recovery figure, and the bench wants a fixed short run.
func measureRepair() (corePoint, error) {
	const np = 256
	base := func() ftpm.Config {
		return ftpm.Config{
			NP:       np,
			Protocol: ftpm.ProtoPcl,
			Interval: 50 * time.Millisecond,
			Servers:  4,
			// np compute nodes + 4 servers + service node + 2 spares.
			Topology: platform.EthernetCluster(np + 7),
			Profile:  platform.PclSock,
			NewProgram: func(rank, size int) mpi.Program {
				return nas.NewJacobi(rank, size, np*4, 400)
			},
			FTEvery:    10,
			Recovery:   ftpm.RecoveryULFM,
			NodeLoss:   true,
			SpareNodes: 2,
			Seed:       1,
		}
	}
	// The failure-free completion anchors the kill mid-run; both runs are
	// deterministic, so the anchored schedule is too.
	probe, err := ftpm.Run(base())
	if err != nil {
		return corePoint{}, fmt.Errorf("repair probe: %w", err)
	}
	cfg := base()
	cfg.Failures = failure.Plan{{At: probe.Completion / 2, Kind: failure.KindNode, Node: np / 2}}
	col := obs.NewCollector()
	cfg.Sink = col

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err := ftpm.Run(cfg)
	if err != nil {
		return corePoint{}, fmt.Errorf("repair run: %w", err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if res.Repairs != 1 || res.Restarts != 0 {
		return corePoint{}, fmt.Errorf("repair run: got %d repairs and %d restarts, want one clean in-job repair",
			res.Repairs, res.Restarts)
	}
	var failedAt, resumedAt sim.Time
	for _, ev := range col.Events() {
		switch {
		case ev.Type == obs.EvProcFailed && failedAt == 0:
			failedAt = ev.T
		case ev.Type == obs.EvRepairEnd:
			resumedAt = ev.T
		}
	}
	return corePoint{
		Bench:       "repair",
		Proto:       "pcl",
		NP:          np,
		WallMS:      float64(wall.Nanoseconds()) / 1e6,
		AllocsPerOp: float64(m1.Mallocs - m0.Mallocs),
		BytesPerOp:  float64(m1.TotalAlloc - m0.TotalAlloc),
		VirtS:       res.Completion.Seconds(),
		Waves:       res.WavesCommitted,
		RepairMS:    float64((resumedAt - failedAt).Nanoseconds()) / 1e6,
		Recovered:   1 - float64(res.LostWork)/(float64(np)*float64(res.Completion)),
	}, nil
}

// measureStorage times the hierarchy store path at the paper's grid
// scale: the same BT.A job as the NP=256 matrix point, but checkpointing
// through a two-level buffer + replicated-servers hierarchy, with either
// full or incremental+compressed images.  The pair records what the
// image planner costs (and saves) on the hot path; both points sit under
// the allocation gate, so a leak in staging, drains or the delta chains
// shows up in CI.
func measureStorage(incremental bool) (corePoint, error) {
	const np = 256
	o := coreRunOpts("pcl", np)
	o.Servers = 0
	o.Storage = &ftckpt.StorageSpec{
		Levels: []ftckpt.LevelSpec{
			{Kind: ftckpt.LevelBuffer},
			{Kind: ftckpt.LevelServers, Servers: 4, Replicas: 2, WriteQuorum: 1},
		},
	}
	bench := "storage-full"
	if incremental {
		o.Storage.Incremental = true
		o.Storage.Compress = true
		bench = "storage-incremental"
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	rep, err := ftckpt.Run(o)
	if err != nil {
		return corePoint{}, fmt.Errorf("%s np=%d: %w", bench, np, err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return corePoint{
		Bench:       bench,
		Proto:       "pcl",
		NP:          np,
		WallMS:      float64(wall.Nanoseconds()) / 1e6,
		AllocsPerOp: float64(m1.Mallocs - m0.Mallocs),
		BytesPerOp:  float64(m1.TotalAlloc - m0.TotalAlloc),
		VirtS:       rep.Completion.Seconds(),
		Waves:       rep.Waves,
	}, nil
}

// coreSpec names one run measurement: protocol and size; repair selects
// the ULFM in-job recovery point and storage ("full" or "incremental")
// the hierarchy store-path points instead of a plain run.
type coreSpec struct {
	proto   string
	np      int
	repair  bool
	storage string
}

func coreMeasure(points []coreSpec) (*coreDoc, error) {
	doc := &coreDoc{
		Cmd:  "figures -bench-core",
		Go:   runtime.Version(),
		CPUs: runtime.NumCPU(),
	}
	// Warm up the process (thread pool, heap target, page cache) with one
	// unmeasured small run: the first simulation in a fresh process is
	// consistently 20-50% slower than steady state, which would bias
	// whichever matrix point happens to run first.
	if len(points) > 0 {
		if _, err := ftckpt.Run(coreRunOpts("pcl", 64)); err != nil {
			return nil, err
		}
	}
	ke, err := measureKernelEvents()
	if err != nil {
		return nil, err
	}
	doc.Points = append(doc.Points, ke)
	fmt.Fprintf(os.Stderr, "figures: %-28s %8.1f ns/op  %7.3f allocs/op  %8.1f B/op\n",
		"kernel-events", ke.NsPerOp, ke.AllocsPerOp, ke.BytesPerOp)
	for _, pt := range points {
		var p corePoint
		var err error
		switch {
		case pt.repair:
			p, err = measureRepair()
		case pt.storage != "":
			p, err = measureStorage(pt.storage == "incremental")
		default:
			p, err = measureRun(pt.proto, pt.np)
		}
		if err != nil {
			return nil, err
		}
		if p.NP > doc.MaxNP {
			doc.MaxNP = p.NP
		}
		doc.Points = append(doc.Points, p)
		label := fmt.Sprintf("%s proto=%s np=%d", p.Bench, pt.proto, pt.np)
		fmt.Fprintf(os.Stderr, "figures: %-28s %8.0f ms  %12.0f allocs  %6.1f virt-s  %d waves",
			label, p.WallMS, p.AllocsPerOp, p.VirtS, p.Waves)
		if pt.repair {
			fmt.Fprintf(os.Stderr, "  repair %.2f virt-ms  recovered %.4f", p.RepairMS, p.Recovered)
		}
		fmt.Fprintln(os.Stderr)
	}
	return doc, nil
}

// benchCore measures the full matrix up to maxNP and writes the document.
// When -bench-core-np raises the ceiling past the matrix it adds the
// scaling points: mlog (the protocol with the densest event stream) at
// 4096 and 16384.
func benchCore(path string, maxNP int) error {
	var pts []coreSpec
	for _, proto := range []string{"pcl", "vcl", "mlog"} {
		for _, np := range []int{64, 256, 1024} {
			if np <= maxNP {
				pts = append(pts, coreSpec{proto: proto, np: np})
			}
		}
	}
	// The ULFM repair point: one node loss survived in-job at the paper's
	// grid scale, gated on allocations like every run point and recorded
	// with its virtual detection-to-resume latency.
	if 256 <= maxNP {
		pts = append(pts, coreSpec{proto: "pcl", np: 256, repair: true})
		// The storage-hierarchy store-path pair: full vs incremental +
		// compressed images through the two-level (buffer + servers)
		// hierarchy at the same scale.
		pts = append(pts,
			coreSpec{proto: "pcl", np: 256, storage: "full"},
			coreSpec{proto: "pcl", np: 256, storage: "incremental"})
	}
	for _, np := range []int{4096, 16384} {
		if np <= maxNP {
			pts = append(pts, coreSpec{proto: "mlog", np: np})
		}
	}
	doc, err := coreMeasure(pts)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(os.Stderr, "figures: core benchmark document written to %s\n", path)
	}
	return err
}

// benchCoreCheck measures the smoke subset and compares allocations
// against the committed document's "after" section.  The subset keeps CI
// fast while still covering every protocol and the NP=1024 scaling point
// the overhaul targets.
func benchCoreCheck(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file coreFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	base := file.After
	if base == nil {
		// Accept a flat document too (a file written by -bench-core).
		var flat coreDoc
		if err := json.Unmarshal(raw, &flat); err != nil || len(flat.Points) == 0 {
			return fmt.Errorf("%s: no \"after\" section and not a flat core document", path)
		}
		base = &flat
	}
	find := func(bench, proto string, np int) *corePoint {
		for i := range base.Points {
			p := &base.Points[i]
			if p.Bench == bench && p.Proto == proto && p.NP == np {
				return p
			}
		}
		return nil
	}
	smoke := []coreSpec{
		{proto: "pcl", np: 64}, {proto: "vcl", np: 64}, {proto: "mlog", np: 64},
		{proto: "pcl", np: 256}, {proto: "pcl", np: 1024},
		// The in-job repair point: keeps the ULFM recovery path under the
		// allocation gate too (a leak in revoke/park/splice shows up here).
		{proto: "pcl", np: 256, repair: true},
		// The hierarchy store-path pair: staging, drains and the image
		// planner (full vs incremental+compressed) under the same gate.
		{proto: "pcl", np: 256, storage: "full"},
		{proto: "pcl", np: 256, storage: "incremental"},
	}
	doc, err := coreMeasure(smoke)
	if err != nil {
		return err
	}
	bad := 0
	for _, p := range doc.Points {
		b := find(p.Bench, p.Proto, p.NP)
		if b == nil {
			fmt.Fprintf(os.Stderr, "figures: %s proto=%s np=%d: no committed baseline point — add it with -bench-core\n",
				p.Bench, p.Proto, p.NP)
			bad++
			continue
		}
		// 25% relative headroom plus a small absolute slack: the
		// kernel-events baseline is ~1e-5 allocs/op (runtime background
		// work), where a pure ratio would flag noise.  0.01 allocs/op is
		// far below any real per-event regression and is negligible
		// against the run points' millions.
		limit := b.AllocsPerOp*1.25 + 0.01
		verdict := "ok"
		if p.AllocsPerOp > limit {
			verdict = "REGRESSION"
			bad++
		}
		fmt.Fprintf(os.Stderr, "figures: %-12s proto=%-4s np=%-5d allocs %12.3f vs baseline %12.3f (limit %12.3f) %s\n",
			p.Bench, p.Proto, p.NP, p.AllocsPerOp, b.AllocsPerOp, limit, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("core regression: %d point(s) exceed the committed baseline in %s (allocs >1.25x)", bad, path)
	}
	fmt.Fprintln(os.Stderr, "figures: core allocations within 25% of the committed baseline")
	return nil
}
