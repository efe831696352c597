package nas

import (
	"testing"

	"ftckpt/internal/mpi"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
)

// The benchmarks below are the nas-layer twins of the benchmark's
// recover-hier-64 workload: the real kernels at the sizes its runs use
// (cg-real at NP 64, N = 256·NP; Jacobi ULFM at NP 16, N = 16·NP), two
// processes per node, driven through Step so they time the kernels' own
// data plane.  Run with -benchmem: B/op is the host-side copying a
// payload costs.

func benchWorld(b *testing.B, np int, body func(e *mpi.Engine)) {
	b.Helper()
	b.ReportAllocs()
	w := mpi.NewWorld(sim.New(1), platform.EthernetCluster(np/2), mpi.Profile{}, np, 2)
	b.ResetTimer()
	if err := w.Run(body); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCGGatherFT is one search-direction allgather plus one partner
// snapshot exchange per op on every rank: the two phases whose payloads
// are real vectors.
func BenchmarkCGGatherFT(b *testing.B) {
	const np = 64
	benchWorld(b, np, func(e *mpi.Engine) {
		c := NewCG(e.Rank(), np, 256*np, 12, 0)
		fill(float64(e.Rank()), c.X, c.R, c.P)
		c.SetFTEvery(1)
		for i := 0; i < b.N; i++ {
			c.Phase, c.It = cgGatherP, i
			c.Step(e)
			c.Phase = cgFTExch
			c.Step(e)
		}
	})
}

// BenchmarkJacobiULFM is one Jacobi iteration per op with partner
// snapshots every ten iterations, the cadence in-job (ULFM) recovery
// runs: two halo exchanges and the stencil each op, the residual
// allreduce and a snapshot exchange every tenth.
func BenchmarkJacobiULFM(b *testing.B) {
	const np = 16
	benchWorld(b, np, func(e *mpi.Engine) {
		j := NewJacobi(e.Rank(), np, 16*np, b.N)
		j.Tol = 0 // never converges early: exactly b.N iterations
		j.SetFTEvery(10)
		for !j.Step(e) {
		}
	})
}
