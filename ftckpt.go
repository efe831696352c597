// Package ftckpt is a reproduction, as a Go library, of "Blocking vs.
// non-blocking coordinated checkpointing for large-scale fault tolerant
// MPI" (Buntinas, Coti, Herault, Lemarinier, Pilard, Rezmerita, Rodriguez,
// Cappello — SC 2006 / FGCS 2008).
//
// It bundles a deterministic discrete-event simulation of the paper's
// platforms (Gigabit-Ethernet clusters, Myrinet, the Grid'5000
// multi-cluster grid), an MPI-like message-passing library with the device
// hook points fault-tolerance protocols need, both coordinated
// checkpointing protocols (blocking Pcl and non-blocking Chandy–Lamport
// Vcl), checkpoint servers, a fault tolerant process manager with failure
// injection and rollback recovery, and the NAS-style workloads of the
// paper's evaluation.
//
// This package is the high-level facade: describe a run with Options and
// execute it with Run.  The package examples show typical use; the cmd/
// tools and internal/expt regenerate every figure of the paper.
package ftckpt

import (
	"context"
	"fmt"
	"slices"
	"time"

	"ftckpt/internal/ckpt"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
	"ftckpt/internal/sweep"
)

// Report summarizes a completed run.  Its counts are read off the run's
// own metrics (folded from the event stream), so they equal what a Sink
// attached through Options.Sink counts.
type Report struct {
	// Completion is the job's virtual completion time.
	Completion time.Duration
	// Waves counts committed checkpoint waves; LocalCheckpoints the local
	// snapshots taken; Restarts the rollback episodes.
	Waves            int
	LocalCheckpoints int
	Restarts         int
	// Messages counts packets on the wire; PayloadMB application bytes;
	// CheckpointMB data stored on checkpoint servers; LoggedMessages and
	// LoggedMB the messages logged — the channel state under Vcl, every
	// delivered payload under Mlog's pessimistic logging (a message
	// replayed during recovery is not logged a second time).
	Messages       int64
	PayloadMB      float64
	CheckpointMB   float64
	LoggedMessages int
	LoggedMB       float64
	// Checksum is the workload's verification value — identical across a
	// failure-free run and any recovered run of the same Options.
	Checksum float64
	// Repairs counts in-job (ULFM) repairs: failures survived without a
	// rollback-restart.  LostWork is the total virtual compute time redone
	// because of repairs (each survivor rolls back to the agreed partner
	// snapshot); RecoveredWork is the fraction of the job's total rank-time
	// NOT redone, 1 for a failure-free or repair-free run.
	Repairs       int
	LostWork      time.Duration
	RecoveredWork float64
	// ServerFailures counts checkpoint servers lost during the run;
	// Failovers counts fetches served by a surviving replica after the
	// preferred one was unavailable.
	ServerFailures int
	Failovers      int
	// MeanWaveSpread, MeanWaveTransfer and MeanWaveCycle break a committed
	// wave into the synchronization/snapshot straggle, the image-transfer
	// tail and the whole first-snapshot-to-commit cycle.  Zero under Mlog,
	// whose ranks checkpoint independently: it has no waves.
	MeanWaveSpread   time.Duration
	MeanWaveTransfer time.Duration
	MeanWaveCycle    time.Duration
	// Metrics is the run's full metrics registry (blocked-time and wave
	// histograms, per-channel logged bytes, per-server image bytes …),
	// exportable with its WriteJSON / WriteCSV methods — Options.Metrics
	// when that was set, with this run merged into it.
	Metrics *Metrics
	// Attribution is the conservation-checked per-phase overhead
	// breakdown of the run's virtual completion time, present when
	// Options.Attribution was set (nil otherwise).
	Attribution *Attribution
}

// Run executes the described job to completion (recovering from every
// injected failure) and reports the outcome.
func Run(o Options) (Report, error) {
	rep, _, err := RunKernelStats(o)
	return rep, err
}

// KernelStats are the event kernel's own counters for one run: events
// scheduled, fired and cancelled, and the high-water marks of its heap,
// slot slab and lanes.  They describe what the run cost the simulator,
// not the simulated system, and are not part of the Report.
type KernelStats = sim.Stats

// RunKernelStats is Run, also returning the kernel's counters (valid even
// when the run fails).
func RunKernelStats(o Options) (Report, KernelStats, error) {
	cfg, err := buildConfig(o)
	if err != nil {
		return Report{}, KernelStats{}, err
	}
	job, err := ftpm.NewJob(cfg)
	if err != nil {
		return Report{}, KernelStats{}, err
	}
	res, err := job.Run()
	st := job.Kernel().Stats()
	if err != nil {
		return Report{}, st, err
	}
	rep := reportFrom(res, cfg.NP)
	if progs := job.Programs(); len(progs) > 0 {
		rep.Checksum = checksum(progs[0])
	}
	return rep, st, nil
}

func reportFrom(res ftpm.Result, np int) Report {
	recovered := 1.0
	if res.Completion > 0 && np > 0 {
		recovered = 1 - float64(res.LostWork)/(float64(np)*float64(res.Completion))
	}
	return Report{
		Completion:       res.Completion,
		Waves:            res.WavesCommitted,
		LocalCheckpoints: res.LocalCkpts,
		Restarts:         res.Restarts,
		Repairs:          res.Repairs,
		LostWork:         res.LostWork,
		RecoveredWork:    recovered,
		Messages:         res.Messages,
		PayloadMB:        float64(res.PayloadBytes) / (1 << 20),
		CheckpointMB:     float64(res.CkptBytes) / (1 << 20),
		LoggedMessages:   res.LoggedMsgs,
		LoggedMB:         float64(res.LoggedBytes) / (1 << 20),
		ServerFailures:   res.ServerFailures,
		Failovers:        res.Failovers,
		MeanWaveSpread:   res.WaveBreakdown.MeanSpread,
		MeanWaveTransfer: res.WaveBreakdown.MeanTransfer,
		MeanWaveCycle:    res.WaveBreakdown.MeanCycle,
		Metrics:          res.Metrics,
		Attribution:      res.Attribution,
	}
}

// SweepOptions tunes a Sweep.
type SweepOptions struct {
	// Jobs caps how many points run concurrently (each point is one full
	// simulation).  0 means runtime.NumCPU(); 1 reproduces a plain
	// sequential loop of Run calls exactly.
	Jobs int
	// Metrics, when set, receives every point's counters, gauges and
	// histograms, merged deterministically in point order after all
	// points finish — byte-identical to sequential runs sharing one
	// registry.
	Metrics *Metrics
}

// Sweep runs several independent jobs concurrently and returns their
// reports in input order — the batch counterpart of Run for parameter
// grids (checkpoint interval × MTTF, size sweeps, protocol comparisons).
// Each point keeps the registry its run counted into (any Options.Metrics
// on a point is ignored — merging into one registry from concurrent runs
// is a data race); they are folded into o.Metrics afterwards.  Reports,
// merged metrics and trace output are byte-identical for any Jobs value
// with the same seeds.  The first point error cancels the remaining
// unstarted points and is returned, naming the point.
func Sweep(points []Options, o SweepOptions) ([]Report, error) {
	reps, err := sweep.Run(context.Background(), points,
		func(_ context.Context, i int, p Options, _ sweep.Tracef) (Report, error) {
			p.Metrics = nil
			rep, err := Run(p)
			if err != nil {
				return Report{}, fmt.Errorf("ftckpt: sweep point %d (np=%d proto=%q interval=%v): %w",
					i, p.NP, p.Protocol, p.Interval, err)
			}
			return rep, nil
		}, sweep.Opts{Jobs: o.Jobs})
	if err != nil {
		return nil, err
	}
	for _, rep := range reps {
		o.Metrics.Merge(rep.Metrics)
	}
	return reps, nil
}

func checksum(p mpi.Program) float64 {
	switch w := p.(type) {
	case *nas.BTModel:
		return w.Checksum
	case *nas.CGModel:
		return w.Checksum
	case *nas.CG:
		return w.Residual
	case *nas.Jacobi:
		return w.Residual
	default:
		return 0
	}
}

// ConfigError is the one shape a rejected run description takes, from
// Run, RunKernelStats, Sweep and Chaos alike: Field names the offending
// knob (dotted for nested ones — "Storage.Levels[0].Kind",
// "Failures[1].Server", "ChaosSpec.Kills"), Reason says what is wrong with
// it.  Reach it with errors.As.
type ConfigError = ftpm.ConfigError

// buildConfig translates Options into the process manager's Config: the
// workload becomes a program factory, the platform a topology sized for
// the job's nodes and a communication profile.  Everything else is
// copied as written — ftpm.Config.Validate is where a run is rejected,
// so the only errors produced here concern what ftpm never sees
// (Workload, Class, Platform, the grid layout's limits).
func buildConfig(o Options) (ftpm.Config, error) {
	ppn := max(o.ProcsPerNode, 1) // sizes the topology; Validate owns the rule
	var hb HeartbeatSpec
	if o.Heartbeat != nil {
		hb = *o.Heartbeat
	}
	newProgram, err := workloadFactory(o)
	if err != nil {
		return ftpm.Config{}, err
	}
	ftEvery := 0
	if o.Recovery == RecoveryULFM {
		// Application snapshot cadence for the partner-checkpoint scheme;
		// every 10 iterations balances repair cost against lost work for
		// the real kernels.
		ftEvery = 10
	}
	cfg := ftpm.Config{
		NP:              o.NP,
		ProcsPerNode:    o.ProcsPerNode,
		Protocol:        o.Protocol,
		Interval:        o.Interval,
		Servers:         o.Servers,
		Heartbeat:       hb,
		VclProcessLimit: o.VclProcessLimit,
		Recovery:        o.Recovery,
		Spares:          o.Spares,
		FTEvery:         ftEvery,
		NewProgram:      newProgram,
		Seed:            o.Seed,
		Failures:        o.Failures,
		MTTF:            o.MTTF,
		ServerMTTF:      o.ServerMTTF,
		NodeMTTF:        o.NodeMTTF,
		Sink:            o.Sink,
		Metrics:         o.Metrics,
		Attrib:          o.Attribution,
		MetricsSnapshot: o.MetricsSnapshot,
	}
	// serverNodes and pfsTargets size the topology from the storage tier:
	// Storage's levels, or the one servers level Servers is shorthand for.
	// Negative counts are Validate's to reject and contribute nothing here.
	serverNodes, pfsTargets := o.Servers, 0
	switch {
	case o.Storage != nil:
		// Validate writes defaults into the spec, and Sweep points may
		// share one *StorageSpec across goroutines: the job gets its own.
		sp := *o.Storage
		sp.Levels = slices.Clone(sp.Levels)
		cfg.Storage = &sp
		if sl := sp.ServersLevel(); sl != nil {
			serverNodes = sl.Servers
		}
		if i := sp.Level(LevelPFS); i >= 0 {
			if pfsTargets = sp.Levels[i].Targets; pfsTargets <= 0 {
				pfsTargets = ckpt.DefaultPFSTargets // what Normalize gives it
			}
		}
	case o.Servers <= 0 && o.Protocol != "" && o.Protocol != ProtocolNone:
		// One checkpoint server unless the caller asked for more.
		cfg.Servers, serverNodes = 1, 1
	}
	// Compute nodes, checkpoint servers, the service node, spares, then
	// the PFS targets.
	computeNodes := (max(o.NP, 0) + ppn - 1) / ppn
	pad := computeNodes + max(serverNodes, 0) + 1 + max(o.Spares, 0) + pfsTargets
	switch o.Platform {
	case "", PlatformEthernet:
		cfg.Topology = platform.EthernetCluster(pad)
		cfg.Profile = platform.PclSock
	case PlatformMyrinetGM:
		cfg.Topology = platform.MyrinetGM(pad)
		cfg.Profile = platform.PclNemesis
	case PlatformMyrinetTCP:
		cfg.Topology = platform.MyrinetTCP(pad)
		cfg.Profile = platform.PclSock
	case PlatformGrid:
		if o.Spares > 0 {
			return ftpm.Config{}, &ConfigError{Field: "Spares", Reason: "the grid platform's fixed layout has no spare slots"}
		}
		if sp := cfg.Storage; sp != nil && (len(sp.Levels) != 1 || sp.Levels[0].Kind != LevelServers) {
			return ftpm.Config{}, &ConfigError{Field: "Storage", Reason: "the grid platform's per-cluster server placement takes only the servers level"}
		}
		lay, err := platform.Grid5000Layout(o.NP, ppn)
		if err != nil {
			return ftpm.Config{}, &ConfigError{Field: "NP", Reason: err.Error()}
		}
		cfg.Topology = lay.Topo
		cfg.Placement = lay.Placement
		cfg.ServerNodes = lay.ServerNodes
		cfg.ServerOf = lay.ServerOf
		cfg.ServiceNode = lay.ServiceNode
		// The layout's one server per cluster overrides the count written.
		if cfg.Storage != nil {
			cfg.Storage.Levels[0].Servers = lay.Servers
		} else {
			cfg.Servers = lay.Servers
		}
		cfg.Profile = platform.PclSock
	default:
		return ftpm.Config{}, &ConfigError{Field: "Platform", Reason: fmt.Sprintf("unknown platform %q (want %q, %q, %q or %q)",
			o.Platform, PlatformEthernet, PlatformMyrinetGM, PlatformMyrinetTCP, PlatformGrid)}
	}
	if o.Protocol == Vcl || o.Protocol == Mlog {
		// Both MPICH-V protocol families run through the daemon device.
		cfg.Profile = platform.Vcl
	}
	return cfg, nil
}

// workloadFactory resolves Workload and Class to a program constructor,
// rejecting a process count the workload's decomposition cannot take
// before a rank's constructor would panic on it.
func workloadFactory(o Options) (func(rank, size int) mpi.Program, error) {
	class := string(o.Class)
	if class == "" {
		class = string(ClassB)
	}
	reject := func(field string, err error) (func(rank, size int) mpi.Program, error) {
		return nil, &ConfigError{Field: field, Reason: err.Error()}
	}
	switch o.Workload {
	case "", WorkloadBT:
		c, err := nas.BTClass(class)
		if err != nil {
			return reject("Class", err)
		}
		if err := nas.CheckBTProcs(o.NP); err != nil {
			return reject("NP", err)
		}
		return func(rank, size int) mpi.Program { return nas.NewBTModel(c, rank, size) }, nil
	case WorkloadCG:
		c, err := nas.CGClass(class)
		if err != nil {
			return reject("Class", err)
		}
		return func(rank, size int) mpi.Program { return nas.NewCGModel(c, rank, size) }, nil
	case WorkloadCGReal:
		n := 256 * o.NP
		return func(rank, size int) mpi.Program { return nas.NewCG(rank, size, n, o.Seed+11, 80) }, nil
	case WorkloadJacobi:
		n := o.NP * 16
		return func(rank, size int) mpi.Program { return nas.NewJacobi(rank, size, n, 2000) }, nil
	default:
		return reject("Workload", fmt.Errorf("unknown workload %q (want %q, %q, %q or %q)",
			o.Workload, WorkloadBT, WorkloadCG, WorkloadCGReal, WorkloadJacobi))
	}
}
