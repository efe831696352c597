package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"ftckpt"
	"ftckpt/internal/expt"
)

// scale sizes the workloads and probes.  "full" is the benchmark; "smoke"
// exists only so bench_test.go can drive every code path in seconds, and
// its numbers are never recorded.
type scale struct {
	name             string
	npBig, npMid     int // bt-pcl-<npBig>; proto-matrix, warm-up and the ratio runs at npMid
	npHier, npJacobi int
	figs             []string // harnesses figures-quick runs
	warmFig          string   // harness of its warm-up
	deepPop          int      // pending events of sim.event_ns_pop1m
	events           int      // operations per micro-probe repetition
	floodEndpoints   int
	images           int
	sweepPoints      int
}

var scales = map[string]scale{
	"full": {name: "full", npBig: 1024, npMid: 256, npHier: 64, npJacobi: 16, figs: figNames, warmFig: "7",
		deepPop: 1 << 20, events: 1 << 20, floodEndpoints: 256, images: 256, sweepPoints: 10000},
	"smoke": {name: "smoke", npBig: 64, npMid: 16, npHier: 8, npJacobi: 8, figs: []string{"netpipe", "5", "6"}, warmFig: "5",
		deepPop: 1 << 14, events: 1 << 13, floodEndpoints: 32, images: 16, sweepPoints: 100},
}

// env is what a workload's set-up receives: the seed is the only source
// of variation, and the simulator sees nothing but the Options built here.
type env struct {
	seed int64
	sc   scale
	jobs int // figures-quick concurrency: min(nproc, 4)
}

// simRun is one op: one simulation (or one figure harness) with its host
// wall, its simulated message count and the simulated statistics that
// must repeat exactly.
type simRun struct {
	Label  string  `json:"label"`
	Wall   float64 `json:"wall_s"`
	Msgs   int64   `json:"msgs"`
	Stats  string  `json:"stats"`
	Err    string  `json:"err,omitempty"`
	Events int     `json:"events,omitempty"` // events the op's Collector received

	reg *ftckpt.Metrics // the op's registry, for the traced pass's counts
}

// workload is one named load.  expectSetup and expectIter are the walls
// measured on the 2-core reference host; the watchdog allows four times
// their sum before it kills the child.
type workload struct {
	name, why   string
	iterations  int // timed iterations of a full run
	expectSetup time.Duration
	expectIter  time.Duration
	// setup generates the option sets (and kill plans) from the seed,
	// warms the process up, and returns the function that runs one timed
	// iteration.
	setup func(e env) (func(tr *tracer) []simRun, error)
}

var workloads = []workload{
	{
		name:       "bt-pcl-1024",
		why:        "one Pcl marker flood at NP=1024 parks ~2M events: the sim heap, slab growth and GC carry the run; ckpt and ftpm do almost nothing",
		iterations: 3, expectSetup: 2 * time.Second, expectIter: 16 * time.Second,
		setup: func(e env) (func(*tracer) []simRun, error) {
			if err := warmUp(e); err != nil {
				return nil, err
			}
			o := btOpts(ftckpt.Pcl, e.sc.npBig, e.seed)
			return func(tr *tracer) []simRun {
				return []simRun{runOp(tr, fmt.Sprintf("pcl np=%d", o.NP), o, wantWaves)}
			}, nil
		},
	},
	{
		name:       "proto-matrix-256",
		why:        "Pcl, Vcl and Mlog at NP=256 on a shallow heap: LP park/wake, simnet and mpi matching dominate; Mlog sends no flood and loads core.mlog and the ckpt servers",
		iterations: 4, expectSetup: 2 * time.Second, expectIter: 10 * time.Second,
		setup: func(e env) (func(*tracer) []simRun, error) {
			if err := warmUp(e); err != nil {
				return nil, err
			}
			return func(tr *tracer) []simRun {
				var runs []simRun
				for _, p := range []ftckpt.Protocol{ftckpt.Pcl, ftckpt.Vcl, ftckpt.Mlog} {
					o := btOpts(p, e.sc.npMid, e.seed)
					runs = append(runs, runOp(tr, fmt.Sprintf("%s np=%d", p, o.NP), o, wantWaves))
				}
				return runs
			}, nil
		},
	},
	{
		name:       "recover-hier-64",
		why:        "real kernels through scripted kills, a three-level storage hierarchy and every sink on: image encode, restart/repair, drains and obs/span carry the run; the event heap does little",
		iterations: 7, expectSetup: 6 * time.Second, expectIter: 4800 * time.Millisecond,
		setup: setupRecover,
	},
	{
		name:       "figures-quick",
		why:        "all nine figure harnesses with Quick: dozens of small simulations, so job launch/teardown and the sweep pool dominate: the load a launch-time cost would hurt",
		iterations: 5, expectSetup: 2 * time.Second, expectIter: 6200 * time.Millisecond,
		setup: func(e env) (func(*tracer) []simRun, error) {
			if r := runFigure(nil, e.sc.warmFig, e.seed, e.jobs); r.Err != "" {
				return nil, fmt.Errorf("warm-up fig %s: %s", e.sc.warmFig, r.Err)
			}
			return func(tr *tracer) []simRun {
				var runs []simRun
				for _, f := range e.sc.figs {
					runs = append(runs, runFigure(tr, f, e.seed, e.jobs))
				}
				return runs
			}, nil
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// btIntervals give every BT run a couple of checkpoint waves; they mirror
// benchRunIntervals in bench_core_test.go so history stays comparable.
var btIntervals = map[int]time.Duration{
	16:   8 * time.Second,
	64:   8 * time.Second,
	256:  2 * time.Second,
	1024: 400 * time.Millisecond,
}

// btOpts mirrors benchRunOpts of bench_core_test.go: BT class A, two
// processes per node, four checkpoint servers, no Vcl process limit.
func btOpts(proto ftckpt.Protocol, np int, seed int64) ftckpt.Options {
	return ftckpt.Options{
		Workload:        ftckpt.WorkloadBT,
		Class:           ftckpt.ClassA,
		NP:              np,
		ProcsPerNode:    2,
		Protocol:        proto,
		Interval:        btIntervals[np],
		Servers:         4,
		Seed:            seed,
		VclProcessLimit: -1,
	}
}

// warmUp is the fixed warm-up of the Run-based workloads: one Pcl run at
// the mid size grows the heap and faults the code in before anything is
// timed.
func warmUp(e env) error {
	if _, err := ftckpt.Run(btOpts(ftckpt.Pcl, e.sc.npMid, e.seed)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func wantWaves(rep ftckpt.Report) error {
	if rep.Waves == 0 && rep.LocalCheckpoints == 0 {
		return fmt.Errorf("run took no checkpoint")
	}
	return nil
}

// timeRun is the one place the benchmark calls ftckpt.Run under a clock.
func timeRun(tr *tracer, label string, o ftckpt.Options) (ftckpt.Report, float64, error) {
	end := tr.start("Run " + label)
	t := time.Now()
	rep, err := ftckpt.Run(o)
	wall := time.Since(t).Seconds()
	end()
	return rep, wall, err
}

// runOp executes one simulation through the facade and applies the
// workload's correctness check to its report.
func runOp(tr *tracer, label string, o ftckpt.Options, check func(ftckpt.Report) error) simRun {
	rep, wall, err := timeRun(tr, label, o)
	r := simRun{Label: label, Wall: wall}
	if err != nil { // includes a DegradedError stop
		r.Err = err.Error()
		return r
	}
	r.Msgs = rep.Messages
	r.reg = rep.Metrics
	r.Stats = fmt.Sprintf("%s completion=%d waves=%d restarts=%d repairs=%d msgs=%d ckptMB=%.6f checksum=%x",
		label, rep.Completion, rep.Waves, rep.Restarts, rep.Repairs, rep.Messages, rep.CheckpointMB, math.Float64bits(rep.Checksum))
	if c, ok := o.Sink.(*ftckpt.Collector); ok {
		r.Events = len(c.Events())
	}
	if rep.Attribution != nil {
		if err := rep.Attribution.Check(); err != nil {
			r.Err = "attribution: " + err.Error()
		}
	}
	if err := check(rep); err != nil {
		r.Err = err.Error()
	}
	return r
}

// hierOpts is the storage-hierarchy scenario of recover-hier-64: cg-real
// writing incremental, compressed images through a node-local buffer,
// four servers at two replicas (quorum 1, two retries) and a four-target
// PFS striped two ways.
func hierOpts(proto ftckpt.Protocol, np int, seed int64) ftckpt.Options {
	return ftckpt.Options{
		Workload:     ftckpt.WorkloadCGReal,
		NP:           np,
		ProcsPerNode: 2,
		Protocol:     proto,
		Interval:     5 * time.Millisecond,
		Storage: &ftckpt.StorageSpec{
			Levels: []ftckpt.LevelSpec{
				{Kind: ftckpt.LevelBuffer},
				{Kind: ftckpt.LevelServers, Servers: 4, Replicas: 2, WriteQuorum: 1,
					StoreRetries: 2, RetryBackoff: time.Millisecond},
				{Kind: ftckpt.LevelPFS, Targets: 4, Stripes: 2},
			},
			Incremental: true,
			Compress:    true,
		},
		Seed:            seed,
		VclProcessLimit: -1,
	}
}

func jacobiOpts(np int, seed int64) ftckpt.Options {
	return ftckpt.Options{
		Workload:     ftckpt.WorkloadJacobi,
		NP:           np,
		ProcsPerNode: 2,
		Protocol:     ftckpt.Pcl,
		Interval:     5 * time.Millisecond,
		Servers:      4,
		Recovery:     ftckpt.RecoveryULFM,
		Spares:       2,
		Seed:         seed,
	}
}

// observed turns every sink on, as recover-hier-64 runs: attribution, an
// event Collector (fresh per run) and 1 ms counter snapshots.
func observed(o ftckpt.Options) ftckpt.Options {
	o.Attribution = true
	o.Sink = ftckpt.NewCollector()
	o.MetricsSnapshot = time.Millisecond
	return o
}

// setupRecover runs the three failure-free references (which also warm
// the process up, so it needs no other warm-up), then scripts the
// kills at fixed fractions of each reference's virtual completion with
// victims drawn from the seed.  A recovered run is correct when its
// checksum equals the reference's and the expected recovery happened.
func setupRecover(e env) (func(*tracer) []simRun, error) {
	rng := rand.New(rand.NewSource(e.seed))
	type scenario struct {
		label string
		opts  ftckpt.Options
		check func(ftckpt.Report) error
	}
	var scenarios []scenario
	reference := func(o ftckpt.Options) (ftckpt.Report, error) {
		ref, err := ftckpt.Run(o)
		if err != nil {
			return ref, fmt.Errorf("reference run (%s np=%d %s): %w", o.Workload, o.NP, o.Protocol, err)
		}
		return ref, nil
	}
	at := func(ref ftckpt.Report, pct int) time.Duration { return ref.Completion * time.Duration(pct) / 100 }
	sameChecksum := func(ref, rep ftckpt.Report) error {
		if rep.Checksum != ref.Checksum {
			return fmt.Errorf("recovered checksum %v differs from the failure-free %v", rep.Checksum, ref.Checksum)
		}
		return nil
	}

	for _, p := range []ftckpt.Protocol{ftckpt.Pcl, ftckpt.Vcl} {
		o := hierOpts(p, e.sc.npHier, e.seed)
		ref, err := reference(o)
		if err != nil {
			return nil, err
		}
		o.Failures = []ftckpt.Failure{
			ftckpt.KillRank(at(ref, 30), rng.Intn(o.NP)),
			ftckpt.KillBuffer(at(ref, 50), rng.Intn(o.NP/o.ProcsPerNode)),
			ftckpt.KillServer(at(ref, 70), rng.Intn(4)),
		}
		scenarios = append(scenarios, scenario{fmt.Sprintf("cg-real %s np=%d kills", p, o.NP), o,
			func(rep ftckpt.Report) error {
				if rep.Restarts < 1 {
					return fmt.Errorf("the rank kill caused no restart")
				}
				return sameChecksum(ref, rep)
			}})
	}

	o := jacobiOpts(e.sc.npJacobi, e.seed)
	ref, err := reference(o)
	if err != nil {
		return nil, err
	}
	nodes := o.NP / o.ProcsPerNode
	victim := rng.Intn(o.NP)
	// The node kill spares the machine already hit by the rank kill, so
	// the two failures stay two independent recoveries.
	node := (victim/o.ProcsPerNode + 1 + rng.Intn(nodes-1)) % nodes
	o.Failures = []ftckpt.Failure{ftckpt.KillRank(at(ref, 30), victim), ftckpt.KillNode(at(ref, 60), node)}
	scenarios = append(scenarios, scenario{fmt.Sprintf("jacobi ulfm np=%d kills", o.NP), o,
		func(rep ftckpt.Report) error {
			if rep.Repairs < 1 || rep.Repairs+rep.Restarts < 2 {
				return fmt.Errorf("expected an in-job repair and a second recovery, got %d repairs, %d restarts", rep.Repairs, rep.Restarts)
			}
			return sameChecksum(ref, rep)
		}})

	return func(tr *tracer) []simRun {
		var runs []simRun
		for _, s := range scenarios {
			runs = append(runs, runOp(tr, s.label, observed(s.opts), s.check))
		}
		return runs
	}, nil
}

// figHarness maps the figure names of cmd/figures onto the expt harnesses.
var figHarness = map[string]func(expt.Options) (any, error){
	"netpipe":  func(o expt.Options) (any, error) { return expt.Netpipe(o) },
	"5":        func(o expt.Options) (any, error) { return expt.Fig5(o) },
	"6":        func(o expt.Options) (any, error) { return expt.Fig6(o) },
	"7":        func(o expt.Options) (any, error) { return expt.Fig7(o) },
	"8":        func(o expt.Options) (any, error) { return expt.Fig8(o) },
	"9":        func(o expt.Options) (any, error) { return expt.Fig9(o) },
	"10":       func(o expt.Options) (any, error) { return expt.Fig10(o) },
	"recovery": func(o expt.Options) (any, error) { return expt.Recovery(o) },
	"storage":  func(o expt.Options) (any, error) { return expt.Storage(o) },
}

// runFigure executes one quick figure harness as one op.  Its message
// count is fabric.msgs of the harness registry; its simulated statistics
// are the rows the figure plots.
func runFigure(tr *tracer, fig string, seed int64, jobs int) simRun {
	reg := ftckpt.NewMetrics()
	end := tr.start("harness " + fig)
	t := time.Now()
	rows, err := figHarness[fig](expt.Options{Quick: true, Seed: seed, Jobs: jobs, Metrics: reg})
	r := simRun{Label: "fig " + fig, Wall: time.Since(t).Seconds(), reg: reg}
	end()
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Msgs = reg.Counter("fabric.msgs")
	r.Stats = fmt.Sprintf("fig %s msgs=%d rows=%+v", fig, r.Msgs, rows)
	return r
}

// fingerprint hashes the simulated statistics of an iteration's runs.  A
// change that only speeds the simulator up must leave it identical.
func fingerprint(runs []simRun) string {
	h := fnv.New64a()
	for _, r := range runs {
		h.Write([]byte(r.Stats))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
