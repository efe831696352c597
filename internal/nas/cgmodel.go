package nas

import (
	"math/bits"
	"time"

	"ftckpt/internal/mpi"
	"ftckpt/internal/sim"
)

// CGModel reproduces the communication structure of NAS CG: an outer loop
// of conjugate-gradient solves whose inner iterations each perform a
// transpose exchange of vector segments and two scalar reductions.  CG "is
// a benchmark with a lot of small communications, and is therefore a
// latency-bound benchmark" (paper §5.3) — which is exactly what exposes
// Vcl's daemon overhead on high-speed networks in Fig. 7.
type CGModel struct {
	Rank, Size int
	Outer      int
	Inner      int
	OIt, IIt   int
	Phase      int
	CompStep   sim.Time
	SegBytes   int64
	Mem        int64
	Local      float64
	Checksum   float64
	out        mpi.F64Chunk // as BTModel.out
}

// NewCGModel builds rank's CG model for an NPB class.
func NewCGModel(class CGClassSpec, rank, np int) *CGModel {
	perInner := class.Flops / float64(class.Iters*class.Inner) / float64(np) / EffectiveFlopRate
	return &CGModel{
		Rank: rank, Size: np,
		Outer:    class.Iters,
		Inner:    class.Inner,
		CompStep: sim.Time(perInner * float64(time.Second)),
		SegBytes: int64(class.N) / int64(np) * 8 * 4,
		Mem:      class.MemPerProc(np),
		Local:    float64(rank + 1),
	}
}

// partner picks the inner iteration's exchange peer: a butterfly on
// power-of-two sizes (NAS CG's row/column exchange pattern), a shifting
// ring otherwise.
func (c *CGModel) partner() int {
	if c.Size == 1 {
		return c.Rank
	}
	if c.Size&(c.Size-1) == 0 {
		dim := bits.TrailingZeros(uint(c.Size))
		return c.Rank ^ (1 << (c.IIt % dim))
	}
	shift := 1 + c.IIt%(c.Size-1)
	return (c.Rank + shift) % c.Size
}

// CG model phases (per inner iteration).
const (
	cgmComp = iota
	cgmExchange
	cgmDot1
	cgmDot2
	cgmFinal
)

const cgmTag = 30

// Step advances one phase.
func (c *CGModel) Step(e *mpi.Engine) bool {
	switch c.Phase {
	case cgmComp:
		e.Compute(c.CompStep)
		c.Phase = cgmExchange
	case cgmExchange:
		p := c.partner()
		if p == c.Rank {
			c.Phase = cgmDot1
			break
		}
		if c.Size&(c.Size-1) == 0 {
			// Butterfly partners exchange mutually.
			pkt := e.Sendrecv(p, cgmTag, c.out.Put(c.Local), c.SegBytes, p, cgmTag)
			c.Local = float64(0.5*c.Local) + float64(0.5*mpi.DecodeF64(pkt.Data[:8])) + 1
		} else {
			// Ring: send to (rank+s), receive from (rank-s).
			src := (c.Rank - 1 - c.IIt%(c.Size-1) + 2*c.Size) % c.Size
			pkt := e.Sendrecv(p, cgmTag, c.out.Put(c.Local), c.SegBytes, src, cgmTag)
			c.Local = float64(0.5*c.Local) + float64(0.5*mpi.DecodeF64(pkt.Data[:8])) + 1
		}
		c.Phase = cgmDot1
	case cgmDot1:
		s := e.AllreduceF64(mpi.OpSum, []float64{c.Local})
		c.Local = c.Local + float64(s[0]/float64(c.Size)*1e-3)
		c.Phase = cgmDot2
	case cgmDot2:
		e.AllreduceF64(mpi.OpSum, []float64{c.Local})
		c.IIt++
		if c.IIt >= c.Inner {
			c.IIt = 0
			c.OIt++
			if c.OIt >= c.Outer {
				c.Phase = cgmFinal
				break
			}
		}
		c.Phase = cgmComp
	case cgmFinal:
		s := e.AllreduceF64(mpi.OpSum, []float64{c.Local})
		c.Checksum = s[0]
		return true
	}
	return false
}

// Footprint reports the class resident set per process.
func (c *CGModel) Footprint() int64 { return c.Mem }
