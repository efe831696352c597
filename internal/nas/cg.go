package nas

import (
	"math"
	"slices"

	"ftckpt/internal/mpi"
	"ftckpt/internal/sim"
	"time"
)

// CG is a real distributed conjugate-gradient kernel in the style of NAS
// CG: a sparse symmetric positive-definite system solved by CG, with the
// matrix partitioned by rows, the search direction assembled with an
// allgather, and the dot products reduced with allreduces.  It is written
// as a resumable Program: every vector lives in the serializable struct,
// the matrix is regenerated deterministically from the seed after a
// restore, and each phase performs one blocking operation.
//
// The kernel is used at reduced problem sizes to verify numerically exact
// recovery; the large-scale experiments use CGModel.
type CG struct {
	ftState // in-memory partner checkpoints (unexported: not in images)

	Rank, Size int
	N          int   // global matrix order (divisible by Size)
	Seed       int64 // matrix generator seed
	MaxIter    int
	FlopTime   sim.Time // modelled compute charged per matvec (0 = derive)

	// Solver state.
	Phase    int
	It       int
	X        []float64 // local rows of the iterate
	R        []float64 // local residual
	P        []float64 // local search direction
	Q        []float64 // local A·p
	RR       float64   // r·r
	PAp      float64
	PFull    []float64 // assembled search direction (kept across phases)
	Residual float64   // final ‖r‖₂ (set when done)

	// cache: regenerated, never serialized.
	rows   [][]int
	vals   [][]float64
	haveMx bool
	snap   cgSnap // ftEncode's record, held so that an encode boxes nothing
}

// NewCG builds the rank-local part of an N×N system (N divisible by size).
func NewCG(rank, size, n int, seed int64, iters int) *CG {
	if n%size != 0 {
		panic("nas: CG order must be divisible by the process count")
	}
	c := &CG{Rank: rank, Size: size, N: n, Seed: seed, MaxIter: iters}
	local := n / size
	c.X = make([]float64, local)
	c.R = make([]float64, local)
	c.P = make([]float64, local)
	c.Q = make([]float64, local)
	return c
}

// cgOffsets is the symmetric band structure: row g couples with g±o
// (cyclically) for each offset, giving a sparse SPD matrix both endpoints
// of a coupling regenerate identically — the image never stores the
// matrix, mirroring how a real restart reloads read-only data.
var cgOffsets = [...]int{1, 7, 101, 1003}

// ensureMatrix regenerates the local rows deterministically from the seed.
func (c *CG) ensureMatrix() {
	if c.haveMx {
		return
	}
	local := c.N / c.Size
	base := c.Rank * local
	c.rows = make([][]int, local)
	c.vals = make([][]float64, local)
	for i := 0; i < local; i++ {
		g := base + i
		idx := []int{g}
		val := []float64{0}
		sum := 0.0
		for _, o := range cgOffsets {
			if o >= c.N {
				continue
			}
			for _, j := range []int{(g + o) % c.N, (g - o + c.N) % c.N} {
				if j == g {
					continue
				}
				lo, hi := g, j
				if lo > hi {
					lo, hi = hi, lo
				}
				w := pairWeight(c.Seed, lo, hi)
				idx = append(idx, j)
				val = append(val, w)
				sum += math.Abs(w)
			}
		}
		val[0] = sum + 1 + float64(g%7) // strict diagonal dominance → SPD
		c.rows[i] = idx
		c.vals[i] = val
	}
	c.haveMx = true
}

// pairWeight is a deterministic symmetric coupling in (-0.5, 0.5).
func pairWeight(seed int64, lo, hi int) float64 {
	h := uint64(seed) * 0x9e3779b97f4a7c15
	h ^= uint64(lo)*0xbf58476d1ce4e5b9 + uint64(hi)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 27
	return (float64(h%1_000_000)/1_000_000 - 0.5) * 0.9
}

// cgPhase enumerates the solver's resumable phases.
const (
	cgInit = iota
	cgGatherP
	cgMatvec
	cgDotPAp
	cgUpdate
	cgDotRR
	cgFinish
	cgDone
	cgFTExch // partner-snapshot ring exchange (in-job recovery)
)

// Step advances the solver by one phase.
func (c *CG) Step(e *mpi.Engine) bool {
	c.ensureMatrix()
	local := c.N / c.Size
	switch c.Phase {
	case cgInit:
		// b = 1; x = 0 → r = p = b.
		for i := 0; i < local; i++ {
			c.X[i] = 0
			c.R[i] = 1
			c.P[i] = 1
		}
		rr := e.AllreduceF64(mpi.OpSum, []float64{dot(c.R, c.R)})
		c.RR = rr[0]
		c.Phase = cgGatherP
	case cgGatherP:
		blocks := e.AllgatherB(mpi.EncodeF64s(c.P))
		c.PFull = slices.Grow(c.PFull[:0], c.N)
		for _, b := range blocks {
			c.PFull = mpi.AppendF64s(c.PFull, b)
		}
		c.Phase = cgMatvec
	case cgMatvec:
		// q = A_local · p_full (the real flops, plus modelled time).
		// Idempotent: a rollback caught in Compute just redoes the matvec.
		for i := 0; i < local; i++ {
			s := 0.0
			for k, j := range c.rows[i] {
				s += float64(c.vals[i][k] * c.PFull[j])
			}
			c.Q[i] = s
		}
		e.Compute(c.matvecTime())
		c.Phase = cgDotPAp
	case cgDotPAp:
		pap := e.AllreduceF64(mpi.OpSum, []float64{dot(c.P, c.Q)})
		c.PAp = pap[0]
		c.Phase = cgUpdate
	case cgUpdate:
		alpha := c.RR / c.PAp
		for i := 0; i < local; i++ {
			c.X[i] += float64(alpha * c.P[i])
			c.R[i] -= float64(alpha * c.Q[i])
		}
		c.Phase = cgDotRR
	case cgDotRR:
		rr := e.AllreduceF64(mpi.OpSum, []float64{dot(c.R, c.R)})
		beta := rr[0] / c.RR
		c.RR = rr[0]
		for i := 0; i < local; i++ {
			c.P[i] = c.R[i] + float64(beta*c.P[i])
		}
		c.It++
		switch {
		case c.It >= c.MaxIter || c.RR < 1e-18:
			c.Phase = cgFinish
		case c.ftEvery() > 0 && c.It%c.ftEvery() == 0:
			c.Phase = cgFTExch
		default:
			c.Phase = cgGatherP
		}
	case cgFTExch:
		// The phase flips only after the exchange completes, so a protocol
		// checkpoint taken while blocked in it restores into the same
		// Sendrecv (ftEncode is a pure function of the solver state).
		c.ftExchange(e, c.Rank, c.Size, c.It, c.ftEncode)
		c.Phase = cgGatherP
	case cgFinish:
		rr := e.AllreduceF64(mpi.OpSum, []float64{dot(c.R, c.R)})
		c.Residual = math.Sqrt(rr[0])
		c.Phase = cgDone
		return true
	}
	return false
}

// cgSnap is CG's partner snapshot: the solver state at the exchange point
// (after the r·r allreduce, about to gather the next search direction).
type cgSnap struct {
	It      int
	RR      float64
	X, R, P []float64
}

// ftEncode appends the snapshot to dst's buffer, emptied.
func (c *CG) ftEncode(dst []byte) []byte {
	c.snap = cgSnap{c.It, c.RR, c.X, c.R, c.P}
	return mpi.AppendState(snapBuf(dst, 2, c.X, c.R, c.P), &c.snap)
}

func (c *CG) ftDecode(blob []byte) bool {
	var s cgSnap
	if mpi.LoadState(blob, &s) != nil || len(s.X) != len(c.X) || len(s.R) != len(c.R) || len(s.P) != len(c.P) {
		return false
	}
	copy(c.X, s.X)
	copy(c.R, s.R)
	copy(c.P, s.P)
	c.It, c.RR, c.Phase = s.It, s.RR, cgGatherP
	return true
}

// FTRollback restores the solver to its own snapshot at level.
func (c *CG) FTRollback(level int) bool {
	s, ok := c.ownSnap(level)
	if !ok || !c.ftDecode(s.blob) {
		return false
	}
	c.ftTruncate(level)
	return true
}

// FTInstall loads a peer-held snapshot into a fresh replacement process.
func (c *CG) FTInstall(blob []byte) bool {
	if !c.ftDecode(blob) {
		return false
	}
	c.ftInstall(c.It, 0, blob)
	return true
}

func (c *CG) matvecTime() sim.Time {
	if c.FlopTime > 0 {
		return c.FlopTime
	}
	// ~10 flops per local row at the effective rate.
	return sim.Time(float64(c.N/c.Size) * 10 / EffectiveFlopRate * float64(time.Second))
}

// Footprint models the process memory: matrix + vectors.
func (c *CG) Footprint() int64 {
	return int64(c.N/c.Size)*120 + int64(c.N)*8
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}
