// Package expt contains one harness per figure of the paper's evaluation
// (§5, Figs. 5–10) plus the NetPIPE platform characterization (§5.4).
// A harness is its sweep as data and a reducer: it lists the sweep's
// points (a label and the jobs it runs, in order), hands them to one
// runner, and turns the returned results into the rows the paper plots.
// cmd/figures prints them; bench_test.go wraps them in testing.B
// benchmarks; EXPERIMENTS.md records paper-vs-measured shapes.
package expt

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"ftckpt/internal/ftpm"
	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
	"ftckpt/internal/span"
	"ftckpt/internal/sweep"
)

// Options tunes a harness run.
type Options struct {
	// Quick shrinks workloads (~10x fewer iterations, fewer sweep points)
	// so the full suite smoke-tests in seconds.  Figure shapes survive;
	// absolute values do not.
	Quick bool
	// Trace receives one progress line per job (nil = silent).
	Trace func(format string, args ...any)
	// Seed feeds the deterministic kernels.
	Seed int64
	// Metrics, when set, aggregates every run of the harness into one
	// observability registry (cmd/figures dumps it next to each figure).
	Metrics *obs.Metrics
	// Jobs caps how many sweep points run concurrently (each point is one
	// or more full simulations); 1 runs them one after another and 0 means
	// one per CPU.  Rows, trace output, Metrics and Attrib are
	// byte-identical for any Jobs value with the same seed.
	Jobs int
	// Attrib, when set, attaches the causal span tracer to every run of
	// the harness and folds each run's per-phase overhead attribution into
	// this accumulator.
	Attrib *span.Attribution

	// maxTime overrides the derived per-run deadline (test hook).
	maxTime sim.Time
}

// btClass returns the BT class for a harness, shortened in Quick mode.
func (o Options) btClass() nas.BTClassSpec {
	c := nas.BTClassB
	if o.Quick {
		c.Iters = 20
		c.Flops /= 10
		c.BytesPerCell /= 20 // keep image transfers proportional to the shrunken run
	}
	return c
}

// cgClass returns the CG class for a harness, shortened in Quick mode.
func (o Options) cgClass() nas.CGClassSpec {
	c := nas.CGClassC
	if o.Quick {
		c.Iters = 8
		c.Flops /= 9.375
		c.BytesN /= 20
	}
	return c
}

// scaleInterval shrinks wave intervals in Quick mode so runs still
// checkpoint.
func (o Options) scaleInterval(d sim.Time) sim.Time {
	if o.Quick {
		return d / 10
	}
	return d
}

// newBT builds a BT-model program factory.
func newBT(class nas.BTClassSpec) func(rank, size int) mpi.Program {
	return func(rank, size int) mpi.Program { return nas.NewBTModel(class, rank, size) }
}

// newCG builds a CG-model program factory.
func newCG(class nas.CGClassSpec) func(rank, size int) mpi.Program {
	return func(rank, size int) mpi.Program { return nas.NewCGModel(class, rank, size) }
}

// every returns c checkpointing under proto every iv; at iv 0 it is c
// unchanged, the checkpoint-free baseline on the same platform and profile.
func every(c ftpm.Config, proto ftpm.Proto, iv sim.Time) ftpm.Config {
	if iv > 0 {
		c.Protocol, c.Interval = proto, iv
	}
	return c
}

// deadline bounds one run's virtual time.  A regressed protocol deadlock
// does not exhaust the event heap — wave timers keep re-arming — so
// without a bound a deadlocked run advances virtual time forever and
// hangs cmd/figures silently.  The budget is derived from the workload
// class: the serial compute estimate of the heavier class a harness may
// run (worst case np=1), with an 8x slack factor covering checkpoint
// overhead, restart episodes and grid WAN synchronization.  No healthy
// run gets anywhere near it.
func (o Options) deadline() sim.Time {
	if o.maxTime != 0 {
		return o.maxTime
	}
	serialFlops := max(o.btClass().Flops, o.cgClass().Flops)
	d := sim.Time(serialFlops / nas.EffectiveFlopRate * float64(time.Second))
	return 8 * max(d, time.Minute)
}

// point is one sweep point: the label naming it ("fig6 interval=10s
// np=64") and the jobs it runs, in order.
type point struct {
	label string
	runs  []ftpm.Config
}

// runPoints is the one runner of every harness.  It runs each point's jobs
// in order under the harness deadline, one sweep task per point with at
// most o.Jobs points at once, and returns each point's results.  An error
// names the point, NP, protocol and interval of the job that failed,
// wrapping the job's own error.  Every job counts into a registry of its
// own (Result.Metrics); once the sweep is done those registries merge
// into o.Metrics, and the attributions into o.Attrib, in point and run
// order.  One -v line per job goes out in the same order, so rows, lines
// and merged metrics are byte-identical for any Jobs.
func (o Options) runPoints(points []point) ([][]ftpm.Result, error) {
	out, err := sweep.Run(context.Background(), points,
		func(_ context.Context, _ int, p point, trace sweep.Tracef) ([]ftpm.Result, error) {
			results := make([]ftpm.Result, len(p.runs))
			for i, cfg := range p.runs {
				cfg.Deadline = o.deadline()
				cfg.Attrib = o.Attrib != nil
				res, err := ftpm.Run(cfg)
				name := fmt.Sprintf("%s (np=%d proto=%s interval=%v)",
					p.label, cfg.NP, cmp.Or(cfg.Protocol, ftpm.ProtoNone), cfg.Interval)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				trace("%s: time=%v waves=%d restarts=%d repairs=%d",
					name, res.Completion, res.WavesCommitted, res.Restarts, res.Repairs)
				results[i] = res
			}
			return results, nil
		}, sweep.Opts{Jobs: o.Jobs, Trace: sweep.Tracef(o.Trace)})
	if err != nil {
		return nil, err
	}
	for _, results := range out {
		for _, res := range results {
			o.Metrics.Merge(res.Metrics)
			o.Attrib.Merge(res.Attribution)
		}
	}
	return out, nil
}

// reduce runs the points of a harness whose every point is one row: rows
// holds each point's coordinates, and fill adds what the point's runs
// measured.
func reduce[R any](o Options, points []point, rows []R, fill func(row *R, r []ftpm.Result)) ([]R, error) {
	results, err := o.runPoints(points)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		fill(&rows[i], r)
	}
	return rows, nil
}

// FmtTime renders a virtual duration in seconds for table output.
func FmtTime(t sim.Time) string { return fmt.Sprintf("%.1fs", t.Seconds()) }
