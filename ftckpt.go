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
// execute it with Run.  The examples/ directory shows typical use; the
// cmd/ tools and internal/expt regenerate every figure of the paper.
package ftckpt

import (
	"context"
	"fmt"
	"time"

	"ftckpt/internal/ckpt"
	"ftckpt/internal/failure"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
	"ftckpt/internal/sweep"
)

// Report summarizes a completed run.
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
	// LoggedMB the channel state Vcl logged.
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
	// tail and the whole first-snapshot-to-commit cycle.
	MeanWaveSpread   time.Duration
	MeanWaveTransfer time.Duration
	MeanWaveCycle    time.Duration
	// Metrics is the run's full metrics registry (blocked-time and wave
	// histograms, per-channel logged bytes, per-server image bytes …),
	// exportable with its WriteJSON / WriteCSV methods.
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
	// Trace, when set, receives the points' Verbose progress lines,
	// serialized in point order so concurrent points never interleave
	// (points with a nil Verbose stay silent).
	Trace func(format string, args ...any)
}

// Sweep runs several independent jobs concurrently and returns their
// reports in input order — the batch counterpart of Run for parameter
// grids (checkpoint interval × MTTF, size sweeps, protocol comparisons).
// Each point runs against a private metrics registry (any Options.Metrics
// on a point is ignored — sharing a registry across concurrent runs is a
// data race), folded into o.Metrics afterwards.  Reports, merged metrics
// and trace output are byte-identical for any Jobs value with the same
// seeds.  The first point error cancels the remaining unstarted points
// and is returned, naming the point.
func Sweep(points []Options, o SweepOptions) ([]Report, error) {
	regs := make([]*Metrics, len(points))
	reps, err := sweep.Run(context.Background(), points,
		func(_ context.Context, i int, p Options, trace sweep.Tracef) (Report, error) {
			if o.Metrics != nil {
				regs[i] = NewMetrics()
			}
			p.Metrics = regs[i]
			if o.Trace != nil && p.Verbose != nil {
				// Route the run's progress lines through the ordered sink
				// instead of calling the point's own func from a worker.
				p.Verbose = trace
			}
			rep, err := Run(p)
			if err != nil {
				return Report{}, fmt.Errorf("ftckpt: sweep point %d (np=%d proto=%q interval=%v): %w",
					i, p.NP, p.Protocol, p.Interval, err)
			}
			return rep, nil
		}, sweep.Opts{Jobs: o.Jobs, Trace: sweep.Tracef(o.Trace)})
	if err != nil {
		return nil, err
	}
	for _, reg := range regs {
		o.Metrics.Merge(reg)
	}
	return reps, nil
}

func checksum(p mpi.Program) float64 {
	switch w := p.(type) {
	case *nas.BTModel:
		return w.Checksum
	case *nas.CGModel:
		return w.Checksum
	case *nas.MGModel:
		return w.Checksum
	case *nas.LUModel:
		return w.Checksum
	case *nas.CG:
		return w.Residual
	case *nas.EP:
		return w.SumX + w.SumY
	case *nas.Jacobi:
		return w.Residual
	default:
		return 0
	}
}

// storageSpec converts the facade storage description into the internal
// spec; ftpm.Config.Validate checks and normalizes it.
func storageSpec(s *StorageSpec) *ckpt.Spec {
	sp := &ckpt.Spec{
		Incremental:   s.Incremental,
		FullEvery:     s.FullEvery,
		DirtyFraction: s.DirtyFraction,
		Compress:      s.Compress,
		CompressRatio: s.CompressRatio,
	}
	for _, l := range s.Levels {
		sp.Levels = append(sp.Levels, ckpt.LevelSpec{
			Kind:         ckpt.LevelKind(l.Kind),
			Servers:      l.Servers,
			Replicas:     l.Replicas,
			WriteQuorum:  l.WriteQuorum,
			StoreRetries: l.StoreRetries,
			RetryBackoff: sim.Time(l.RetryBackoff),
			Bandwidth:    l.Bandwidth,
			Latency:      sim.Time(l.Latency),
			Capacity:     l.Capacity,
			Retention:    l.Retention,
			Targets:      l.Targets,
			Stripes:      l.Stripes,
		})
	}
	return sp
}

func buildConfig(o Options) (ftpm.Config, error) {
	if o.NP <= 0 {
		return ftpm.Config{}, fmt.Errorf("ftckpt: Options.NP must be positive, got %d", o.NP)
	}
	ppn := o.ProcsPerNode
	if ppn <= 0 {
		ppn = 1
	}
	proto := ftpm.ProtoNone
	switch o.Protocol {
	case "", ProtocolNone:
	case Pcl, Vcl, Mlog:
		proto = ftpm.Proto(o.Protocol)
	default:
		return ftpm.Config{}, fmt.Errorf("ftckpt: Options.Protocol: unknown protocol %q (want %q, %q, %q or %q)",
			o.Protocol, ProtocolNone, Pcl, Vcl, Mlog)
	}
	servers := o.Servers
	if servers <= 0 && proto != ftpm.ProtoNone {
		servers = 1
	}
	var storage *ckpt.Spec
	if o.Storage != nil {
		if o.Servers != 0 {
			return ftpm.Config{}, fmt.Errorf("ftckpt: Options.Servers conflicts with Options.Storage (set the servers level's Servers instead)")
		}
		if o.Replication != nil {
			return ftpm.Config{}, fmt.Errorf("ftckpt: Options.Replication conflicts with Options.Storage (set the replication knobs on the servers level instead)")
		}
		storage = storageSpec(o.Storage)
		// The spec's servers level is the server count now; keeping the
		// flat field equal makes the fold in Config.Validate a no-op.
		servers = 0
		if sl := storage.ServersLevel(); sl != nil {
			servers = sl.Servers
		}
	}
	var repl ReplicationSpec
	if o.Replication != nil {
		repl = *o.Replication
	}
	var hb HeartbeatSpec
	if o.Heartbeat != nil {
		hb = *o.Heartbeat
	}
	newProgram, err := workloadFactory(o)
	if err != nil {
		return ftpm.Config{}, err
	}
	recovery := ftpm.RecoveryRestart
	switch o.Recovery {
	case "", RecoveryRestart:
	case RecoveryULFM:
		recovery = ftpm.RecoveryULFM
	default:
		return ftpm.Config{}, fmt.Errorf("ftckpt: Options.Recovery: unknown mode %q (want %q or %q)",
			o.Recovery, RecoveryRestart, RecoveryULFM)
	}
	if o.Spares < 0 {
		return ftpm.Config{}, fmt.Errorf("ftckpt: Options.Spares must be non-negative, got %d", o.Spares)
	}
	ftEvery := 0
	if recovery == ftpm.RecoveryULFM {
		// Application snapshot cadence for the partner-checkpoint scheme;
		// every 10 iterations balances repair cost against lost work for
		// the real kernels.
		ftEvery = 10
	}
	cfg := ftpm.Config{
		NP:               o.NP,
		ProcsPerNode:     ppn,
		Protocol:         proto,
		Interval:         o.Interval,
		Servers:          servers,
		Storage:          storage,
		Replicas:         repl.Replicas,
		WriteQuorum:      repl.WriteQuorum,
		StoreRetries:     repl.StoreRetries,
		RetryBackoff:     repl.RetryBackoff,
		HeartbeatPeriod:  hb.Period,
		HeartbeatTimeout: hb.Timeout,
		VclProcessLimit:  o.VclProcessLimit,
		Recovery:         recovery,
		SpareNodes:       o.Spares,
		FTEvery:          ftEvery,
		NewProgram:       newProgram,
		Seed:             o.Seed,
		MTTF:             o.MTTF,
		ServerMTTF:       o.ServerMTTF,
		NodeMTTF:         o.NodeMTTF,
		Trace:            o.Verbose,
		Sink:             o.Sink,
		Metrics:          o.Metrics,
		Attrib:           o.Attribution,
		SnapshotPeriod:   sim.Time(o.MetricsSnapshot),
	}
	for _, f := range o.Failures {
		ev := failure.Event{At: f.At}
		switch f.Kind {
		case "", "rank":
			ev.Rank = f.Rank
		case "node":
			ev.Kind = failure.KindNode
			ev.Node = f.Node
		case "server":
			ev.Kind = failure.KindServer
			ev.Server = f.Server
		case "buffer":
			ev.Kind = failure.KindBuffer
			ev.Node = f.Node
		case "pfs":
			ev.Kind = failure.KindPFS
			ev.Server = f.Server
		default:
			return ftpm.Config{}, fmt.Errorf("ftckpt: Options.Failures: unknown failure kind %q (use KillRank, KillNode, KillServer, KillBuffer or KillPFS)", f.Kind)
		}
		cfg.Failures = append(cfg.Failures, ev)
	}
	computeNodes := (o.NP + ppn - 1) / ppn
	pad := computeNodes + servers + 1 + o.Spares
	if storage != nil {
		if i := storage.Level(ckpt.LevelPFS); i >= 0 {
			// Size the topology for the PFS target nodes too; 4 targets is
			// the model default Normalize applies when the spec left it 0.
			if t := storage.Levels[i].Targets; t > 0 {
				pad += t
			} else {
				pad += 4
			}
		}
	}
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
			return ftpm.Config{}, fmt.Errorf("ftckpt: Options.Spares: the grid platform's fixed layout has no spare slots")
		}
		if storage != nil {
			return ftpm.Config{}, fmt.Errorf("ftckpt: Options.Storage: the grid platform's per-cluster server placement keeps the flat server model")
		}
		lay, err := platform.Grid5000Layout(o.NP, ppn, 1)
		if err != nil {
			return ftpm.Config{}, err
		}
		cfg.Topology = lay.Topo
		cfg.Placement = lay.Placement
		cfg.ServerNodes = lay.ServerNodes
		cfg.ServerOf = lay.ServerOf
		cfg.ServiceNode = lay.ServiceNode
		cfg.Servers = lay.Servers
		cfg.Profile = platform.PclSock
	default:
		return ftpm.Config{}, fmt.Errorf("ftckpt: Options.Platform: unknown platform %q (want %q, %q, %q or %q)",
			o.Platform, PlatformEthernet, PlatformMyrinetGM, PlatformMyrinetTCP, PlatformGrid)
	}
	if proto == ftpm.ProtoVcl || proto == ftpm.ProtoMlog {
		// Both MPICH-V protocol families run through the daemon device.
		cfg.Profile = platform.Vcl
	}
	return cfg, nil
}

func workloadFactory(o Options) (func(rank, size int) mpi.Program, error) {
	class := string(o.Class)
	if class == "" {
		class = string(ClassB)
	}
	wrapClass := func(err error) error {
		return fmt.Errorf("ftckpt: Options.Class: %w", err)
	}
	switch o.Workload {
	case "", WorkloadBT:
		c, err := nas.BTClass(class)
		if err != nil {
			return nil, wrapClass(err)
		}
		return func(rank, size int) mpi.Program { return nas.NewBTModel(c, rank, size) }, nil
	case WorkloadCG:
		c, err := nas.CGClass(class)
		if err != nil {
			return nil, wrapClass(err)
		}
		return func(rank, size int) mpi.Program { return nas.NewCGModel(c, rank, size) }, nil
	case WorkloadMG:
		c, err := nas.MGClass(class)
		if err != nil {
			return nil, wrapClass(err)
		}
		return func(rank, size int) mpi.Program { return nas.NewMGModel(c, rank, size) }, nil
	case WorkloadLU:
		c, err := nas.LUClass(class)
		if err != nil {
			return nil, wrapClass(err)
		}
		return func(rank, size int) mpi.Program { return nas.NewLUModel(c, rank, size) }, nil
	case WorkloadCGReal:
		n := 256 * o.NP
		return func(rank, size int) mpi.Program { return nas.NewCG(rank, size, n, o.Seed+11, 80) }, nil
	case WorkloadEP:
		return func(rank, size int) mpi.Program { return nas.NewEP(rank, size, 1<<18, o.Seed+13) }, nil
	case WorkloadJacobi:
		n := o.NP * 16
		return func(rank, size int) mpi.Program { return nas.NewJacobi(rank, size, n, 2000) }, nil
	default:
		return nil, fmt.Errorf("ftckpt: Options.Workload: unknown workload %q (want %q, %q, %q, %q, %q, %q or %q)",
			o.Workload, WorkloadBT, WorkloadCG, WorkloadMG, WorkloadLU, WorkloadCGReal, WorkloadEP, WorkloadJacobi)
	}
}
