package nas

import (
	"fmt"
	"math"
	"time"

	"ftckpt/internal/mpi"
	"ftckpt/internal/sim"
)

// BTModel reproduces the communication structure of NAS BT on a square
// process grid: per time step, three ADI sweeps, each exchanging
// multipartition faces around the process-grid rows (x, z) or columns (y);
// a residual reduction every 20 steps.  Face sizes (each process owns
// GridP sub-blocks, so a sweep moves ~Grid²·5 doubles/√np per process),
// memory footprint and per-step compute time come from the NPB class.  BT
// is the paper's cluster and grid workload ("a stress test for the fault
// tolerant protocol, since it introduces complex communication schemes
// among all nodes").
type BTModel struct {
	Rank, Size int
	GridP      int // process grid side (Size = GridP²)
	Iters      int
	It         int
	Phase      int
	CompThird  sim.Time // compute time per sweep (one third of a step)
	FaceBytes  int64
	Mem        int64
	Local      float64 // running local pseudo-residual
	Checksum   float64 // global residual (valid when done)
	// out encodes the exchanged scalar.  Unexported, so an image leaves it
	// out and a restored model starts with an empty chunk.
	out mpi.F64Chunk
}

// CheckBTProcs reports why np processes cannot run BT: its
// multipartition needs a perfect square (as in the paper's BT runs: 4, 9,
// 16, 25, ...).  Nil means they can.
func CheckBTProcs(np int) error {
	if g := btGrid(np); g*g != np {
		return fmt.Errorf("BT needs a square process count, got %d", np)
	}
	return nil
}

// btGrid is the side of the process grid: √np, rounded.
func btGrid(np int) int { return int(math.Round(math.Sqrt(float64(np)))) }

// NewBTModel builds rank's BT model for an NPB class.  np must pass
// CheckBTProcs.
func NewBTModel(class BTClassSpec, rank, np int) *BTModel {
	if err := CheckBTProcs(np); err != nil {
		panic("nas: " + err.Error())
	}
	g := btGrid(np)
	perStep := class.Flops / float64(class.Iters) / float64(np) / EffectiveFlopRate
	// Multipartition: each process owns g sub-blocks; one sweep exchanges
	// a face of each, Grid²·5 doubles/g per process per direction.
	face := int64(class.Grid) * int64(class.Grid) * 5 * 8 / int64(g)
	return &BTModel{
		Rank: rank, Size: np, GridP: g,
		Iters:     class.Iters,
		CompThird: sim.Time(perStep / 3 * float64(time.Second)),
		FaceBytes: face,
		Mem:       class.MemPerProc(np),
		Local:     float64(rank + 1),
	}
}

// Grid coordinates and torus neighbours.
func (b *BTModel) row() int { return b.Rank / b.GridP }
func (b *BTModel) col() int { return b.Rank % b.GridP }

func (b *BTModel) rowNeighbor(d int) int {
	c := (b.col() + d + b.GridP) % b.GridP
	return b.row()*b.GridP + c
}

func (b *BTModel) colNeighbor(d int) int {
	r := (b.row() + d + b.GridP) % b.GridP
	return r*b.GridP + b.col()
}

// BT model phases (per time step).
const (
	btXComp = iota
	btXFwd
	btXBwd
	btYComp
	btYFwd
	btYBwd
	btZComp
	btZFwd
	btZBwd
	btNorm
	btFinal
)

const btTag = 20

// Step advances the model by one phase.
func (b *BTModel) Step(e *mpi.Engine) bool {
	exchange := func(dst, src int) {
		p := e.Sendrecv(dst, btTag, b.out.Put(b.Local), b.FaceBytes, src, btTag)
		b.Local = float64(0.5*b.Local) + float64(0.25*mpi.DecodeF64(p.Data[:8])) + 1
	}
	switch b.Phase {
	case btXComp, btYComp, btZComp:
		e.Compute(b.CompThird)
		b.Phase++
	case btXFwd:
		exchange(b.rowNeighbor(1), b.rowNeighbor(-1))
		b.Phase = btXBwd
	case btXBwd:
		exchange(b.rowNeighbor(-1), b.rowNeighbor(1))
		b.Phase = btYComp
	case btYFwd:
		exchange(b.colNeighbor(1), b.colNeighbor(-1))
		b.Phase = btYBwd
	case btYBwd:
		exchange(b.colNeighbor(-1), b.colNeighbor(1))
		b.Phase = btZComp
	case btZFwd:
		exchange(b.rowNeighbor(1), b.rowNeighbor(-1))
		b.Phase = btZBwd
	case btZBwd:
		exchange(b.rowNeighbor(-1), b.rowNeighbor(1))
		b.It++
		switch {
		case b.It >= b.Iters:
			b.Phase = btFinal
		case b.It%20 == 0:
			b.Phase = btNorm
		default:
			b.Phase = btXComp
		}
	case btNorm:
		s := e.AllreduceF64(mpi.OpSum, []float64{b.Local})
		b.Checksum = s[0]
		b.Phase = btXComp
	case btFinal:
		s := e.AllreduceF64(mpi.OpSum, []float64{b.Local})
		b.Checksum = s[0]
		return true
	}
	return false
}

// Footprint reports the class resident set per process.
func (b *BTModel) Footprint() int64 { return b.Mem }
