package expt

import (
	"fmt"
	"math"

	"ftckpt/internal/ckpt"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/obs"
	"ftckpt/internal/platform"
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
	daly = sim.Time(float64(w*(1+x/3+x*x/9)) - cf) // float64(·): never fused
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
	// job runs variant v checkpointing under Pcl every iv (checkpoint-free
	// at iv 0), with memoryless rank failures when rankMTTF > 0.
	job := func(v storageVariant, iv, rankMTTF sim.Time) ftpm.Config {
		cfg := ftpm.Config{
			NP:           np,
			ProcsPerNode: 2,
			Servers:      v.servers,
			Topology:     platform.EthernetCluster(np/2 + v.servers + 1 + v.pfs),
			Profile:      platform.PclSock,
			NewProgram:   newCG(o.cgClass()),
			MTTF:         rankMTTF,
			Seed:         o.Seed,
		}
		if v.spec != nil {
			cfg.Servers, cfg.Storage = 0, v.spec()
		}
		return every(cfg, ftpm.ProtoPcl, iv)
	}

	// Baseline: the workload without checkpointing fixes the time scale
	// every derived quantity hangs off.
	base, err := o.runPoints([]point{{"storage baseline", []ftpm.Config{job(storageVariant{servers: 1}, 0, 0)}}})
	if err != nil {
		return StorageStudy{}, err
	}
	t0 := base[0][0].Completion
	// System MTBF for the analytic optima and the failure sweeps: a
	// third of the baseline run, so every sweep point sees a few kills.
	mttf := t0 / 3

	pcl := func(stage string, i int, iv, rankMTTF sim.Time) point {
		return point{fmt.Sprintf("storage %s %s", stage, variants[i].name), []ftpm.Config{job(variants[i], iv, rankMTTF)}}
	}

	// Probe each variant failure-free at a fixed interval to measure the
	// commit cost C (mean first-snapshot→commit cycle).
	var points []point
	for i := range variants {
		points = append(points, pcl("probe", i, t0/6, 0))
	}
	probes, err := o.runPoints(points)
	if err != nil {
		return StorageStudy{}, err
	}
	costs := make([]sim.Time, len(variants))
	for i, r := range probes {
		if r[0].WavesCommitted == 0 {
			return StorageStudy{}, fmt.Errorf("storage probe %s: no wave committed at interval %v", variants[i].name, t0/6)
		}
		costs[i] = max(r[0].WaveBreakdown.MeanCycle, 1)
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
	points = nil
	for i, c := range costs {
		young, _ := youngDaly(c, mttf)
		for _, f := range fracs {
			points = append(points, pcl("sweep", i, max(sim.Time(float64(young)*f), floor), mttf*np))
		}
	}
	grid, err := o.runPoints(points)
	if err != nil {
		return StorageStudy{}, err
	}
	study := StorageStudy{}
	for i, c := range costs {
		young, daly := youngDaly(c, mttf)
		row := StorageOptRow{Config: variants[i].name, Cost: c, MTTF: mttf, Young: young, Daly: daly}
		for j, r := range grid[i*len(fracs) : (i+1)*len(fracs)] {
			if row.BestTime == 0 || r[0].Completion < row.BestTime {
				row.Best, row.BestTime = points[i*len(fracs)+j].runs[0].Interval, r[0].Completion
			}
		}
		study.Opt = append(study.Opt, row)
	}

	// Saturation accounting: run each variant failure-free at its best
	// interval and charge every level with the bytes that landed on it,
	// read off the run's own registry.
	points = nil
	for i := range variants {
		points = append(points, pcl("saturation", i, study.Opt[i].Best, 0))
	}
	sat, err := o.runPoints(points)
	if err != nil {
		return StorageStudy{}, err
	}
	const mib = 1 << 20
	for i, v := range variants {
		res, cfg := sat[i][0], points[i].runs[0]
		reg := res.Metrics
		nicMBps := cfg.Topology.Clusters[0].NICBW / mib
		levels := []StorageSatRow{{Level: "servers", MB: float64(reg.Counter(obs.MImageBytes)) / mib,
			Capacity: nicMBps * float64(v.servers)}}
		// The run's Validate normalized the spec in place, so the PFS
		// target count read here is the one the run used.
		if sp := cfg.Storage; sp != nil {
			levels = levels[:0]
			for k, l := range sp.Levels {
				row := StorageSatRow{Level: string(l.Kind), MB: float64(reg.Counter(fmt.Sprintf("%s.l%d", obs.MLevelBytes, k))) / mib}
				switch l.Kind {
				case ckpt.LevelBuffer:
					computeNodes := (np + cfg.ProcsPerNode - 1) / cfg.ProcsPerNode
					row.Capacity = ckpt.BufferBW * float64(computeNodes) / mib
				case ckpt.LevelServers:
					row.Capacity = nicMBps * float64(l.Servers)
				case ckpt.LevelPFS:
					row.Capacity = ckpt.PFSStripeBW * float64(l.Targets) / mib
				}
				levels = append(levels, row)
			}
		}
		secs := res.Completion.Seconds() // a completed run, so positive
		for _, row := range levels {
			row.Config = v.name
			if row.Capacity > 0 {
				row.Util = row.MB / (row.Capacity * secs)
			}
			study.Sat = append(study.Sat, row)
		}
	}
	return study, nil
}
