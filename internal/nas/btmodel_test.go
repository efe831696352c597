package nas

import (
	"testing"

	"ftckpt/internal/mpi"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
)

// TestBTExchangeAllocs pins the model send: one BT exchange costs each
// rank's Sendrecv 1/64 of a payload chunk (mpi.F64Chunk), nothing more:
// its body slot is one a consumed message handed back to the fabric
// (mpi.WireMsg), which the bound's 1/128 of a body chunk, the cost while
// slots were carved and never reused, still allows.  Ranks 0 and 1 of a
// 2×2 grid exchange faces with each other; ranks 2 and 3 stay idle, so
// every malloc of the run while rank 0 is inside AllocsPerRun is one of
// the pair's: rank 1's, the network's and the kernel's count too.  The
// warm-up leaves both payload chunks 32 pieces in, so the 128 measured
// exchanges cross a chunk boundary twice per rank, never at their edges;
// AllocsPerRun reports the whole-number average, 0 (2 with a heap Packet
// per message, 4 with a fresh buffer per send as well).
func TestBTExchangeAllocs(t *testing.T) {
	const runs, warm = 128, 32
	var allocs float64
	w := mpi.NewWorld(sim.New(1), platform.EthernetCluster(4), mpi.Profile{}, 4, 1)
	err := w.Run(func(e *mpi.Engine) {
		if e.Rank() > 1 {
			return
		}
		b := NewBTModel(BTClassA, e.Rank(), 4)
		exchange := func() {
			b.Phase = btXFwd
			b.Step(e)
		}
		for range warm - 1 { // opens the link and sizes the queues
			exchange()
		}
		if e.Rank() == 1 {
			for range runs + 1 { // AllocsPerRun makes one warm-up call
				exchange()
			}
			return
		}
		allocs = testing.AllocsPerRun(runs, exchange)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (1.0/64 + 1.0/128); allocs > want {
		t.Errorf("%v allocations per BT exchange of two Sendrecvs, want at most %v", allocs, want)
	}
}
