package expt

import (
	"fmt"
	"math"

	"ftckpt/internal/ckpt"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

// Storage-hierarchy study (beyond the paper's figures): how the optimal
// checkpoint interval moves as the commit gate descends the storage
// hierarchy, and which level saturates first.
//
// For each hierarchy variant the harness measures the per-wave commit
// cost C from a failure-free probe, derives the Young and Daly optimal
// intervals from C and the chosen system MTBF, then sweeps intervals
// around the Young point under memoryless rank failures and reports the
// simulated optimum next to the analytic ones.  Expected shape: staging
// through a node-local buffer shrinks C by orders of magnitude, pulling
// the optimal interval down and the completion time with it — the
// argument multi-level checkpointing systems (FTI, SCR) rest on.

// StorageOptRow is one hierarchy variant of the interval study.
type StorageOptRow struct {
	Config string
	// Cost is the measured mean wave cycle (first snapshot → commit) of
	// the failure-free probe — the C of the Young/Daly formulas.
	Cost sim.Time
	// MTTF is the system MTBF the analytic optima assume (the per-rank
	// MTTF divided by NP).
	MTTF sim.Time
	// Young = sqrt(2·C·MTTF); Daly is the higher-order refinement.
	Young sim.Time
	Daly  sim.Time
	// Best is the interval with the lowest completion time on the
	// simulated sweep grid; BestTime that completion.
	Best     sim.Time
	BestTime sim.Time
}

// StorageSatRow is one level of one variant's saturation accounting, at
// the variant's simulated-optimal interval.
type StorageSatRow struct {
	Config string
	Level  string
	// MB is the data the level absorbed (stores and drains landing on
	// it); Capacity the level's aggregate bandwidth in MB/s.
	MB       float64
	Capacity float64
	// Util is the level's busy fraction: MB / (Capacity × completion).
	// The level closest to 1.0 saturates first as waves come faster.
	Util float64
	// Evictions counts capacity/retention evictions (buffer levels).
	Evictions int64
}

// StorageStudy is the full output of the storage harness.
type StorageStudy struct {
	Opt []StorageOptRow
	Sat []StorageSatRow
}

// storageVariant is one hierarchy shape under study.  Without a spec it
// is the paper's tier alone: servers single-copy checkpoint servers.
type storageVariant struct {
	name    string
	servers int
	pfs     int // PFS target count, 0 without a PFS level
	spec    func() *ckpt.Spec
}

func storageVariants() []storageVariant {
	const servers = 2
	return []storageVariant{
		{name: "servers", servers: servers},
		{name: "buffer+servers", servers: servers, spec: func() *ckpt.Spec {
			return &ckpt.Spec{Levels: []ckpt.LevelSpec{
				{Kind: ckpt.LevelBuffer},
				{Kind: ckpt.LevelServers, Servers: servers},
			}}
		}},
		{name: "buffer+servers+pfs", servers: servers, pfs: 4, spec: func() *ckpt.Spec {
			return &ckpt.Spec{
				Levels: []ckpt.LevelSpec{
					{Kind: ckpt.LevelBuffer},
					{Kind: ckpt.LevelServers, Servers: servers},
					{Kind: ckpt.LevelPFS, Targets: 4, Stripes: 2},
				},
				Incremental: true,
				Compress:    true,
			}
		}},
	}
}

// storageConfig assembles one variant's job.
func (o Options) storageConfig(v storageVariant, np int) ftpm.Config {
	cfg := ftpm.Config{
		NP:           np,
		ProcsPerNode: 2,
		Topology:     platformEthernet(np/2 + v.servers + 1 + v.pfs),
		Profile:      pclSockProfile(),
		NewProgram:   newCG(o.cgClass()),
		Seed:         o.Seed,
	}
	if v.spec != nil {
		cfg.Storage = v.spec()
	} else {
		cfg.Servers = v.servers
	}
	return cfg
}

// youngDaly computes the analytic optimal intervals for commit cost c
// and system MTBF m: Young's W = sqrt(2·c·m) and Daly's higher-order
// refinement W = sqrt(2·c·m)·[1 + sqrt(c/2m)/3 + (c/2m)/9] − c (valid
// for c < 2m, else the interval degenerates to m).
func youngDaly(c, m sim.Time) (young, daly sim.Time) {
	if c <= 0 || m <= 0 {
		return 0, 0
	}
	cf, mf := float64(c), float64(m)
	w := math.Sqrt(2 * cf * mf)
	young = sim.Time(w)
	if cf >= 2*mf {
		return young, m
	}
	x := math.Sqrt(cf / (2 * mf))
	daly = sim.Time(w*(1+x/3+x*x/9) - cf)
	if daly <= 0 {
		daly = young
	}
	return young, daly
}

// Storage runs the hierarchy study: a no-checkpoint baseline, one
// failure-free probe per variant to measure C, an interval sweep under
// rank failures per variant, and a per-level saturation accounting at
// each variant's best interval.
func Storage(o Options) (StorageStudy, error) {
	const np = 16
	variants := storageVariants()

	// Baseline: the workload without checkpointing fixes the time scale
	// every derived quantity hangs off.
	base := o.storageConfig(storageVariant{name: "none", servers: 1}, np)
	o.point = "storage baseline"
	res, err := o.run(base)
	if err != nil {
		return StorageStudy{}, err
	}
	t0 := res.Completion
	// System MTBF for the analytic optima and the failure sweeps: a
	// third of the baseline run, so every sweep point sees a few kills.
	mttf := t0 / 3

	// Probe each variant failure-free at a fixed interval to measure the
	// commit cost C (mean first-snapshot→commit cycle).
	type probe struct {
		cost sim.Time
	}
	probes, err := runSweep(o, variants,
		func(v storageVariant) string { return fmt.Sprintf("storage probe %s", v.name) },
		func(o Options, v storageVariant) (probe, error) {
			cfg := o.storageConfig(v, np)
			cfg.Protocol = ftpm.ProtoPcl
			cfg.Interval = t0 / 6
			res, err := o.run(cfg)
			if err != nil {
				return probe{}, err
			}
			if res.WavesCommitted == 0 {
				return probe{}, fmt.Errorf("storage probe %s: no wave committed at interval %v", v.name, cfg.Interval)
			}
			cost := res.WaveBreakdown.MeanCycle
			if cost <= 0 {
				cost = 1
			}
			o.tracef("storage probe %s: waves=%d cost=%v", v.name, res.WavesCommitted, cost)
			return probe{cost: cost}, nil
		})
	if err != nil {
		return StorageStudy{}, err
	}

	// Interval sweep under memoryless rank failures, around each
	// variant's Young point.  The grid floor keeps buffered variants —
	// whose Young interval can be milliseconds — from running hundreds
	// of waves per point.
	fracs := []float64{0.5, 0.75, 1, 1.5, 2.5}
	if o.Quick {
		fracs = []float64{0.5, 1, 2}
	}
	floor := t0 / 40
	study := StorageStudy{}
	type gridPoint struct {
		variant  int
		interval sim.Time
	}
	var points []gridPoint
	for i, p := range probes {
		young, _ := youngDaly(p.cost, mttf)
		for _, f := range fracs {
			iv := sim.Time(float64(young) * f)
			if iv < floor {
				iv = floor
			}
			points = append(points, gridPoint{variant: i, interval: iv})
		}
	}
	type gridRes struct {
		completion sim.Time
	}
	grid, err := runSweep(o, points,
		func(p gridPoint) string {
			return fmt.Sprintf("storage sweep %s interval=%v", variants[p.variant].name, p.interval)
		},
		func(o Options, p gridPoint) (gridRes, error) {
			cfg := o.storageConfig(variants[p.variant], np)
			cfg.Protocol = ftpm.ProtoPcl
			cfg.Interval = p.interval
			cfg.MTTF = mttf * sim.Time(np)
			res, err := o.run(cfg)
			if err != nil {
				return gridRes{}, err
			}
			o.tracef("storage sweep %s interval=%v time=%v restarts=%d",
				variants[p.variant].name, p.interval, res.Completion, res.Restarts)
			return gridRes{completion: res.Completion}, nil
		})
	if err != nil {
		return StorageStudy{}, err
	}
	for i, p := range probes {
		young, daly := youngDaly(p.cost, mttf)
		row := StorageOptRow{
			Config: variants[i].name, Cost: p.cost, MTTF: mttf,
			Young: young, Daly: daly,
		}
		for j, gp := range points {
			if gp.variant != i {
				continue
			}
			if row.BestTime == 0 || grid[j].completion < row.BestTime {
				row.Best, row.BestTime = gp.interval, grid[j].completion
			}
		}
		study.Opt = append(study.Opt, row)
	}

	// Saturation accounting: run each variant failure-free at its best
	// interval against a private registry and charge every level with
	// the bytes that landed on it.
	for i, v := range variants {
		cfg := o.storageConfig(v, np)
		cfg.Protocol = ftpm.ProtoPcl
		cfg.Interval = study.Opt[i].Best
		reg := obs.NewMetrics()
		po := o
		po.Metrics = reg
		po.point = fmt.Sprintf("storage saturation %s", v.name)
		res, err := po.run(cfg)
		if err != nil {
			return StorageStudy{}, err
		}
		o.Metrics.Merge(reg)
		secs := res.Completion.Seconds()
		if secs <= 0 {
			secs = 1
		}
		nicMBps := cfg.Topology.Clusters[0].NICBW / (1 << 20)
		addRow := func(level string, bytes int64, capMBps float64, evict int64) {
			mb := float64(bytes) / (1 << 20)
			util := 0.0
			if capMBps > 0 {
				util = mb / (capMBps * secs)
			}
			study.Sat = append(study.Sat, StorageSatRow{
				Config: v.name, Level: level,
				MB: mb, Capacity: capMBps, Util: util, Evictions: evict,
			})
		}
		if sp := cfg.Storage; sp != nil {
			computeNodes := (np + cfg.ProcsPerNode - 1) / cfg.ProcsPerNode
			for k := range sp.Levels {
				l := &sp.Levels[k]
				bytes := reg.Counter(fmt.Sprintf("%s.l%d", obs.MLevelBytes, k))
				switch l.Kind {
				case ckpt.LevelBuffer:
					addRow("buffer", bytes, l.Bandwidth*float64(computeNodes)/(1<<20),
						reg.Counter(obs.MEvictions))
				case ckpt.LevelServers:
					addRow("servers", bytes, nicMBps*float64(l.Servers), 0)
				case ckpt.LevelPFS:
					addRow("pfs", bytes, l.Bandwidth*float64(l.Targets)/(1<<20), 0)
				}
			}
		} else {
			addRow("servers", reg.Counter(obs.MImageBytes), nicMBps*float64(v.servers), 0)
		}
		o.tracef("storage saturation %s: time=%v", v.name, res.Completion)
	}
	return study, nil
}
