package ftckpt

import (
	"ftckpt/internal/chaos"
	"ftckpt/internal/ftpm"
)

// DegradedError is the structured error a job stops with when a loss is
// unrecoverable — every replica of a committed image gone, or every
// compute node lost with no spare remaining.  Run and Chaos surface it
// through errors.As instead of panicking.
type DegradedError = ftpm.DegradedError

// ChaosSpec seeds a random kill schedule for Chaos: Kills events landing
// uniformly in [From, Until), of which ServerFrac, NodeFrac, BufferFrac
// and PFSFrac are the expected fractions aimed at checkpoint servers,
// whole compute nodes, node-local staging buffers and PFS targets (the
// last two need the matching Options.Storage levels); the remainder kill
// single ranks.  The schedule is a pure function of the spec (its Seed
// is independent of Options.Seed) and the job options: the same seed
// always kills the same components at the same virtual times.
type ChaosSpec = chaos.Spec

// ChaosReport is the outcome of a chaos run.
type ChaosReport struct {
	// Plan is the generated kill schedule, in execution order.
	Plan []Failure
	// Report summarizes the run (only the Metrics field is meaningful
	// after a degraded stop).
	Report Report
	// Degraded is non-nil when the job stopped with an unrecoverable
	// loss — the expected outcome without replication.
	Degraded *DegradedError
	// Violations lists recovery-invariant breaches: checksum divergence
	// from the failure-free reference, waves committed without a full
	// quorum-stored image set, messages replayed more than once, or (with
	// Options.Attribution) a per-phase breakdown that fails to conserve
	// the run's virtual completion time.  Empty means the run behaved
	// correctly.
	Violations []string
	// Checksum and Reference are the verification values of the chaos
	// run and of the failure-free reference (chaos value 0 when the run
	// degraded before completing).
	Checksum  float64
	Reference float64
}

// OK reports whether every recovery invariant held.
func (r *ChaosReport) OK() bool { return len(r.Violations) == 0 }

// Chaos runs the described job under a seeded random failure schedule —
// rank, node, checkpoint-server, staging-buffer and PFS-target kills,
// landing mid-wave and mid-restart — and checks the recovery
// invariants: the result matches
// the failure-free reference, no wave commits without its images stored
// on a write quorum of replicas, and logged messages are replayed
// exactly once.  A degraded stop is a reported outcome, not an error.
func Chaos(o Options, sp ChaosSpec) (ChaosReport, error) {
	cfg, err := buildConfig(o)
	if err != nil {
		return ChaosReport{}, err
	}
	out, err := chaos.Run(chaos.Config{Job: cfg, Spec: sp, Checksum: checksum})
	if err != nil {
		return ChaosReport{}, err
	}
	rep := ChaosReport{
		Plan:       out.Plan,
		Report:     reportFrom(out.Result, cfg.NP),
		Degraded:   out.Degraded,
		Violations: out.Violations,
	}
	if len(out.Checksums) > 0 {
		rep.Checksum = out.Checksums[0]
	}
	if len(out.Reference) > 0 {
		rep.Reference = out.Reference[0]
	}
	return rep, nil
}
