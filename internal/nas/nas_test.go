package nas_test

import (
	"math"
	"testing"
	"time"

	"ftckpt/internal/failure"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

func topoN(nodes int) simnet.Topology {
	return simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "c", Nodes: nodes, NICBW: 100e6, Latency: 50 * time.Microsecond,
	}}}
}

// runWorld runs prog constructors on a plain (non-fault-tolerant) world.
func runWorld(t *testing.T, np int, mk func(rank int) mpi.Program) []mpi.Program {
	t.Helper()
	w := mpi.NewWorld(sim.New(1), topoN(np), mpi.Profile{}, np, 1)
	progs := make([]mpi.Program, np)
	err := w.Run(func(e *mpi.Engine) {
		rank := e.Rank()
		p := mk(rank)
		progs[rank] = p
		for !p.Step(e) {
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return progs
}

func TestCGConverges(t *testing.T) {
	progs := runWorld(t, 4, func(rank int) mpi.Program {
		return nas.NewCG(rank, 4, 2048, 7, 60)
	})
	var res []float64
	for _, p := range progs {
		res = append(res, p.(*nas.CG).Residual)
	}
	for _, r := range res[1:] {
		if r != res[0] {
			t.Fatalf("ranks disagree on residual: %v", res)
		}
	}
	if res[0] >= 1e-6 || math.IsNaN(res[0]) {
		t.Fatalf("CG did not converge: residual %v", res[0])
	}
}

func TestCGProcessCountInvariance(t *testing.T) {
	residual := func(np int) float64 {
		progs := runWorld(t, np, func(rank int) mpi.Program {
			return nas.NewCG(rank, np, 1024, 7, 40)
		})
		return progs[0].(*nas.CG).Residual
	}
	r1, r4, r8 := residual(1), residual(4), residual(8)
	// Reduction orders differ, so allow floating-point drift only.
	if math.Abs(r1-r4) > 1e-9*(1+math.Abs(r1)) || math.Abs(r1-r8) > 1e-9*(1+math.Abs(r1)) {
		t.Fatalf("residual depends on np: %v %v %v", r1, r4, r8)
	}
}

func TestBTModelRuns(t *testing.T) {
	class := nas.BTClassA
	class.Iters = 20 // shorten for the test
	progs := runWorld(t, 9, func(rank int) mpi.Program {
		return nas.NewBTModel(class, rank, 9)
	})
	var sums []float64
	for _, p := range progs {
		sums = append(sums, p.(*nas.BTModel).Checksum)
	}
	for _, s := range sums[1:] {
		if s != sums[0] {
			t.Fatalf("ranks disagree: %v", sums)
		}
	}
}

func TestBTModelRequiresSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-square np")
		}
	}()
	nas.NewBTModel(nas.BTClassA, 0, 6)
}

func TestCGModelRunsPow2AndOdd(t *testing.T) {
	for _, np := range []int{4, 8, 6} {
		np := np
		class := nas.CGClassA
		class.Iters = 3
		progs := runWorld(t, np, func(rank int) mpi.Program {
			return nas.NewCGModel(class, rank, np)
		})
		var sums []float64
		for _, p := range progs {
			sums = append(sums, p.(*nas.CGModel).Checksum)
		}
		for _, s := range sums[1:] {
			if s != sums[0] {
				t.Fatalf("np=%d ranks disagree: %v", np, sums)
			}
		}
	}
}

// failureAtHalf kills rank 2 halfway through the reference job's runtime.
func failureAtHalf(t *testing.T, ref *ftpm.Job) failure.Plan {
	t.Helper()
	return failure.Plan{{At: ref.Kernel().Now() / 2, Rank: 2}}
}

// failureAtHalfTime kills a rank at a precomputed midpoint.
func failureAtHalfTime(half sim.Time, rank int) failure.Plan {
	return failure.Plan{{At: half, Rank: rank}}
}

// recoveryCfg builds an ftpm config for a workload factory.
func recoveryCfg(np int, mk func(rank, size int) mpi.Program) ftpm.Config {
	return ftpm.Config{
		NP:         np,
		Topology:   topoN(np + 4),
		Profile:    mpi.Profile{Name: "test"},
		NewProgram: mk,
		Servers:    2,
		Deadline:   2 * time.Hour,
		Seed:       3,
	}
}

// TestCGRecoveryExact: a CG run interrupted by a failure recovers and
// produces the identical residual — the end-to-end numerical-correctness
// check of the whole checkpointing stack on a real kernel.
func TestCGRecoveryExact(t *testing.T) {
	mk := func(rank, size int) mpi.Program { return nas.NewCG(rank, size, 1024, 7, 50) }

	base := recoveryCfg(4, mk)
	job, err := ftpm.NewJob(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	want := job.Programs()[0].(*nas.CG).Residual

	for _, proto := range []ftpm.Proto{ftpm.ProtoPcl, ftpm.ProtoVcl} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			cfg := recoveryCfg(4, mk)
			cfg.Protocol = proto
			cfg.Interval = 3 * time.Millisecond
			cfg.Failures = failure.Plan{{At: 8 * time.Millisecond, Rank: 2}}
			job, err := ftpm.NewJob(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Restarts != 1 {
				t.Fatalf("restarts = %d (completion %v)", res.Restarts, res.Completion)
			}
			for r, p := range job.Programs() {
				if got := p.(*nas.CG).Residual; got != want {
					t.Fatalf("rank %d residual %v after recovery, want %v", r, got, want)
				}
			}
		})
	}
}

// TestBTModelRecovery: the modelled workload also survives failures with
// an identical checksum.
func TestBTModelRecovery(t *testing.T) {
	class := nas.BTClassA
	class.Iters = 40
	mk := func(rank, size int) mpi.Program { return nas.NewBTModel(class, rank, size) }

	job, err := ftpm.NewJob(recoveryCfg(4, mk))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	want := job.Programs()[0].(*nas.BTModel).Checksum

	cfg := recoveryCfg(4, mk)
	cfg.Protocol = ftpm.ProtoPcl
	cfg.Interval = 2 * time.Second
	cfg.Failures = failure.Plan{{At: 5 * time.Second, Rank: 1}}
	job2, err := ftpm.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	for _, p := range job2.Programs() {
		if got := p.(*nas.BTModel).Checksum; got != want {
			t.Fatalf("checksum %v after recovery, want %v", got, want)
		}
	}
}
