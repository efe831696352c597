// Package chaos is the fault-injection harness: it derives seeded random
// failure schedules — rank, node and checkpoint-server kills, landing mid
// wave and mid restart — runs a job under them, and checks the recovery
// invariants that the protocol papers promise: the recovered computation
// matches the failure-free reference, no wave commits without a full
// quorum-stored image set, and logged messages are replayed exactly once.
//
// A schedule is a pure function of (Spec, Config): the same seed always
// produces the same kills against the same job, so a chaos run is as
// reproducible as any other simulation — CI can pin seeds, and a failing
// seed is a complete bug report.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"ftckpt/internal/ckpt"
	"ftckpt/internal/failure"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

// Spec describes a random kill schedule.
type Spec struct {
	// Seed drives the schedule; the same seed against the same job
	// config always produces the same plan.
	Seed int64
	// Kills is the number of kill events to schedule.
	Kills int
	// ServerFrac and NodeFrac are the expected fractions of kills
	// aimed at checkpoint servers and at whole compute nodes; BufferFrac
	// and PFSFrac aim kills at node-local staging buffers and PFS
	// targets (storage-hierarchy jobs only); the rest kill single ranks.
	// All default to 0.
	ServerFrac float64
	NodeFrac   float64
	BufferFrac float64
	PFSFrac    float64
	// Kills are drawn uniformly in [From, Until).  Spreading the window
	// across several checkpoint intervals lands kills mid-wave and — once
	// a recovery is in progress — mid-restart.
	From, Until sim.Time
}

// validate rejects a malformed spec the way ftpm.Config.Validate rejects a
// malformed job: a *ftpm.ConfigError naming the ChaosSpec field at fault.
func (sp Spec) validate(cfg *ftpm.Config) error {
	bad := func(field, format string, args ...any) error {
		return &ftpm.ConfigError{Field: "ChaosSpec." + field, Reason: fmt.Sprintf(format, args...)}
	}
	if sp.Kills <= 0 {
		return bad("Kills", "must be positive")
	}
	if sp.Until <= sp.From || sp.From < 0 {
		return bad("Until", "kill window [%v, %v) is empty", sp.From, sp.Until)
	}
	if sp.ServerFrac < 0 || sp.NodeFrac < 0 || sp.BufferFrac < 0 || sp.PFSFrac < 0 ||
		sp.ServerFrac+sp.NodeFrac+sp.BufferFrac+sp.PFSFrac > 1 {
		return bad("ServerFrac", "kill fractions server=%v node=%v buffer=%v pfs=%v outside [0,1]",
			sp.ServerFrac, sp.NodeFrac, sp.BufferFrac, sp.PFSFrac)
	}
	if sp.ServerFrac > 0 && cfg.Storage == nil {
		return bad("ServerFrac", "> 0 but the job has no checkpoint servers")
	}
	if sp.BufferFrac > 0 && (cfg.Storage == nil || cfg.Storage.Level(ckpt.LevelBuffer) < 0) {
		return bad("BufferFrac", "> 0 but the job's storage hierarchy has no buffer level")
	}
	if sp.PFSFrac > 0 && (cfg.Storage == nil || cfg.Storage.Level(ckpt.LevelPFS) < 0) {
		return bad("PFSFrac", "> 0 but the job's storage hierarchy has no PFS level")
	}
	return nil
}

// Schedule derives the deterministic kill plan for a job.  Victims are
// drawn from the job's components only — ranks, checkpoint servers and
// compute nodes; the service node is never killed (the dispatcher is the
// model's reliable coordinator, as the paper's mpiexec is).
func Schedule(sp Spec, cfg ftpm.Config) (failure.Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sp.validate(&cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sp.Seed))
	computeNodes := (cfg.NP + cfg.ProcsPerNode - 1) / cfg.ProcsPerNode
	plan := make(failure.Plan, 0, sp.Kills)
	for i := 0; i < sp.Kills; i++ {
		at := sp.From + sim.Time(rng.Int63n(int64(sp.Until-sp.From)))
		ev := failure.Event{At: at}
		// sp.validate made sure Storage has the level each kind draws from.
		switch x := rng.Float64(); {
		case x < sp.ServerFrac:
			ev.Kind = failure.KindServer
			ev.Server = rng.Intn(cfg.Storage.ServersLevel().Servers)
		case x < sp.ServerFrac+sp.NodeFrac:
			ev.Kind = failure.KindNode
			ev.Node = rng.Intn(computeNodes)
		case x < sp.ServerFrac+sp.NodeFrac+sp.BufferFrac:
			ev.Kind = failure.KindBuffer
			ev.Node = rng.Intn(computeNodes)
		case x < sp.ServerFrac+sp.NodeFrac+sp.BufferFrac+sp.PFSFrac:
			ev.Kind = failure.KindPFS
			ev.Server = rng.Intn(cfg.Storage.Levels[cfg.Storage.Level(ckpt.LevelPFS)].Targets)
		default:
			ev.Rank = rng.Intn(cfg.NP)
		}
		plan = append(plan, ev)
	}
	return plan.Sorted(), nil
}

// Config describes one chaos experiment.
type Config struct {
	// Job is the base job; its Failures field is replaced by the
	// generated schedule.
	Job ftpm.Config
	// Spec generates the schedule.
	Spec Spec
	// Checksum extracts a rank's scalar verification value; the chaos
	// run's values must equal the failure-free reference's.  Nil skips
	// the reference comparison (the event invariants still run).
	Checksum func(p mpi.Program) float64
}

// Outcome reports a chaos run.
type Outcome struct {
	// Plan is the schedule the run executed.
	Plan failure.Plan
	// Result is the run's summary; after a degraded stop it carries only
	// the metrics registry.
	Result ftpm.Result
	// Degraded is set when the job stopped with an unrecoverable loss —
	// a legitimate outcome (expected without replication), never a panic.
	Degraded *ftpm.DegradedError
	// Checksums and Reference are the per-rank verification values of
	// the chaos run and of the failure-free reference (nil when the run
	// degraded or Checksum is nil).
	Checksums []float64
	Reference []float64
	// Violations lists every invariant breach; empty means the run was
	// correct.
	Violations []string
}

// OK reports whether every invariant held.
func (o *Outcome) OK() bool { return len(o.Violations) == 0 }

// Run executes the chaos experiment: generate the schedule, run the
// failure-free reference, run the job under the schedule, and check the
// recovery invariants.  A degraded stop is reported in the Outcome; any
// other job error is returned.
func Run(c Config) (Outcome, error) {
	plan, err := Schedule(c.Spec, c.Job)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Plan: plan}

	if c.Checksum != nil {
		ref := c.Job
		ref.Failures = nil
		ref.MTTF, ref.ServerMTTF, ref.NodeMTTF = 0, 0, 0
		ref.Sink, ref.Trace, ref.Metrics = nil, nil, nil
		job, err := ftpm.NewJob(ref)
		if err != nil {
			return Outcome{}, err
		}
		if _, err := job.Run(); err != nil {
			return Outcome{}, fmt.Errorf("chaos: failure-free reference failed: %w", err)
		}
		for _, p := range job.Programs() {
			out.Reference = append(out.Reference, c.Checksum(p))
		}
	}

	cfg := c.Job
	cfg.Failures = plan
	col := obs.NewCollector()
	cfg.Sink = obs.NewHub(col, c.Job.Sink)
	if err := cfg.Validate(); err != nil {
		return Outcome{}, err
	}
	job, err := ftpm.NewJob(cfg)
	if err != nil {
		return Outcome{}, err
	}
	res, err := job.Run()
	out.Result = res
	if err != nil {
		var deg *ftpm.DegradedError
		if !errors.As(err, &deg) {
			return out, err
		}
		out.Degraded = deg
	}

	// With a staging buffer the commit gate is the node-local write (one
	// store-end event), not the server write quorum; mlog strips the
	// staging levels and keeps the quorum gate.
	quorum := 1
	if sp := cfg.Storage; sp != nil && (sp.Level(ckpt.LevelBuffer) < 0 || cfg.Protocol == ftpm.ProtoMlog) {
		quorum = sp.ServersLevel().WriteQuorum
	}
	out.Violations = checkInvariants(col.Events(), cfg.NP, quorum, cfg.Protocol)
	// When the job carried a span tracer (Config.Job.Attrib), its overhead
	// attribution must conserve virtual time even under this chaos
	// schedule — a broken partition is an invariant breach like any other.
	if out.Result.Attribution != nil {
		if err := out.Result.Attribution.Check(); err != nil {
			out.Violations = append(out.Violations, fmt.Sprintf(
				"attribution conservation: %v", err))
		}
	}
	if out.Degraded == nil && c.Checksum != nil {
		for _, p := range job.Programs() {
			out.Checksums = append(out.Checksums, c.Checksum(p))
		}
		for r := range out.Reference {
			if out.Checksums[r] != out.Reference[r] {
				out.Violations = append(out.Violations, fmt.Sprintf(
					"rank %d recovered to checksum %v, failure-free reference is %v",
					r, out.Checksums[r], out.Reference[r]))
			}
		}
	}
	return out, nil
}
