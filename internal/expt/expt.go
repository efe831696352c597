// Package expt contains one harness per figure of the paper's evaluation
// (§5, Figs. 5–10) plus the NetPIPE platform characterization (§5.4).
// Each harness builds the figure's platform, workload and protocol
// configuration, runs the simulation, and returns the rows/series the
// paper plots.  cmd/figures prints them; bench_test.go wraps them in
// testing.B benchmarks; EXPERIMENTS.md records paper-vs-measured shapes.
package expt

import (
	"context"
	"fmt"
	"time"

	"ftckpt/internal/ftpm"
	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
	"ftckpt/internal/obs"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
	"ftckpt/internal/span"
	"ftckpt/internal/sweep"
)

// Options tunes a harness run.
type Options struct {
	// Quick shrinks workloads (~10x fewer iterations, fewer sweep points)
	// so the full suite smoke-tests in seconds.  Figure shapes survive;
	// absolute values do not.
	Quick bool
	// Trace receives progress lines (nil = silent).
	Trace func(format string, args ...any)
	// Seed feeds the deterministic kernels.
	Seed int64
	// Metrics, when set, aggregates every run of the harness into one
	// observability registry (cmd/figures dumps it next to each figure).
	Metrics *obs.Metrics
	// Jobs caps how many sweep points run concurrently (each point is one
	// or more full simulations); 1 runs them one after another and 0 means
	// one per CPU.
	// Rows, trace output and exported metrics are byte-identical for any
	// Jobs value with the same seed.
	Jobs int
	// Attrib, when set, attaches the causal span tracer to every run of
	// the harness and folds each run's per-phase overhead attribution into
	// this accumulator — deterministically in point order, like Metrics,
	// so the merged breakdown is byte-identical for any Jobs value.
	Attrib *span.Attribution

	// point labels the sweep point a run belongs to ("fig6 interval=10s
	// np=64"), for deadline/error reporting; set by runSweep.
	point string
	// maxTime overrides the derived per-run deadline (test hook).
	maxTime sim.Time
}

func (o Options) tracef(format string, args ...any) {
	if o.Trace != nil {
		o.Trace(format, args...)
	}
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

// Platform and profile shorthands (see internal/platform).
func platformEthernet(nodes int) simnet.Topology { return platform.EthernetCluster(nodes) }
func platformMyriGM(nodes int) simnet.Topology   { return platform.MyrinetGM(nodes) }
func platformMyriTCP(nodes int) simnet.Topology  { return platform.MyrinetTCP(nodes) }
func pclSockProfile() mpi.Profile                { return platform.PclSock }
func pclNemesisProfile() mpi.Profile             { return platform.PclNemesis }
func vclProfile() mpi.Profile                    { return platform.Vcl }

// newBT builds a BT-model program factory.
func newBT(class nas.BTClassSpec) func(rank, size int) mpi.Program {
	return func(rank, size int) mpi.Program { return nas.NewBTModel(class, rank, size) }
}

// newCG builds a CG-model program factory.
func newCG(class nas.CGClassSpec) func(rank, size int) mpi.Program {
	return func(rank, size int) mpi.Program { return nas.NewCGModel(class, rank, size) }
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
	serialFlops := o.btClass().Flops
	if f := o.cgClass().Flops; f > serialFlops {
		serialFlops = f
	}
	d := sim.Time(serialFlops / nas.EffectiveFlopRate * float64(time.Second))
	if d < time.Minute {
		d = time.Minute
	}
	return 8 * d
}

// run executes one configured job under the harness deadline, folding its
// metrics into the harness registry when one is attached.  A run that
// exceeds the deadline returns an error naming the sweep point (figure,
// np, interval) instead of hanging the harness.
func (o Options) run(cfg ftpm.Config) (ftpm.Result, error) {
	cfg.Deadline = o.deadline()
	cfg.Metrics = o.Metrics
	cfg.Attrib = o.Attrib != nil
	res, err := ftpm.Run(cfg)
	if o.Attrib != nil && res.Attribution != nil {
		o.Attrib.Merge(res.Attribution)
	}
	if err != nil {
		point := o.point
		if point == "" {
			point = "run"
		}
		proto := cfg.Protocol
		if proto == "" {
			proto = ftpm.ProtoNone
		}
		return res, fmt.Errorf("%s (np=%d proto=%s interval=%v): %w",
			point, cfg.NP, proto, cfg.Interval, err)
	}
	return res, nil
}

// runSweep fans a harness's independent sweep points over o.Jobs workers
// (each point runs one or more full simulations).  The sequential
// contract is preserved: results come back in input order, each point
// runs against a private metrics registry merged deterministically into
// o.Metrics after the barrier, and per-point trace lines are serialized
// in input order — so rows, -v output and exported metrics are
// byte-identical to a Jobs=1 run with the same seed.
func runSweep[P, R any](o Options, points []P, label func(P) string, fn func(Options, P) (R, error)) ([]R, error) {
	regs := make([]*obs.Metrics, len(points))
	attribs := make([]*span.Attribution, len(points))
	out, err := sweep.Run(context.Background(), points,
		func(_ context.Context, i int, p P, trace sweep.Tracef) (R, error) {
			po := o
			po.Trace = trace
			po.point = label(p)
			if o.Metrics != nil {
				regs[i] = obs.NewMetrics()
				po.Metrics = regs[i]
			}
			if o.Attrib != nil {
				attribs[i] = &span.Attribution{}
				po.Attrib = attribs[i]
			}
			return fn(po, p)
		}, sweep.Opts{Jobs: o.Jobs, Trace: sweep.Tracef(o.Trace)})
	if err != nil {
		return nil, err
	}
	for _, reg := range regs {
		o.Metrics.Merge(reg)
	}
	for _, at := range attribs {
		o.Attrib.Merge(at)
	}
	return out, nil
}

// FmtTime renders a virtual duration in seconds for table output.
func FmtTime(t sim.Time) string { return fmt.Sprintf("%.1fs", t.Seconds()) }
