package nas

import (
	"fmt"
	"math"
	"time"

	"ftckpt/internal/mpi"
	"ftckpt/internal/sim"
)

// Jacobi is a real 2D heat-diffusion solver (five-point stencil, Jacobi
// iteration) with a 1D row decomposition: each step exchanges halo rows
// with both neighbours and every tenth step reduces the global residual.
// Like CG, it is used at small sizes to verify that rollback recovery
// preserves real numerics — here under the halo-exchange pattern that
// dominates structured-grid MPI codes.
type Jacobi struct {
	ftState // in-memory partner checkpoints (unexported: not in images)

	Rank, Size int
	N          int // global grid side (rows divided evenly across ranks)
	MaxIter    int
	Tol        float64

	Phase    int
	It       int
	Cur      []float64 // local rows, (rows+2)×N with ghost rows
	New      []float64
	GhostsUp bool
	Residual float64
	Iters    int // iterations actually executed (set when done)

	snap jacobiSnap // ftEncode's record, held so that an encode boxes nothing
}

// NewJacobi builds rank's slab of an N×N grid (N divisible by size), with
// hot top and cold bottom boundary conditions.
func NewJacobi(rank, size, n, maxIter int) *Jacobi {
	if n%size != 0 {
		panic("nas: Jacobi grid side must be divisible by the process count")
	}
	j := &Jacobi{Rank: rank, Size: size, N: n, MaxIter: maxIter, Tol: 1e-6}
	rows := n / size
	j.Cur = make([]float64, (rows+2)*n)
	j.New = make([]float64, (rows+2)*n)
	if rank == 0 {
		for c := 0; c < n; c++ {
			j.Cur[c] = 100 // fixed hot edge stored in the top ghost row
			j.New[c] = 100
		}
	}
	return j
}

func (j *Jacobi) rows() int { return j.N / j.Size }

// Jacobi phases.
const (
	jacExchUp = iota
	jacExchDown
	jacCompute
	jacResidual
	jacDone
	jacFTExch // partner-snapshot ring exchange (in-job recovery)
)

const (
	jacTagUp   = 60 // halo row travelling to the smaller rank
	jacTagDown = 61 // halo row travelling to the larger rank
)

// Step advances one phase.
func (j *Jacobi) Step(e *mpi.Engine) bool {
	n := j.N
	rows := j.rows()
	switch j.Phase {
	case jacExchUp:
		if j.Rank > 0 {
			e.SendrecvF64s(j.Rank-1, jacTagUp, j.Cur[n:2*n], j.Rank-1, jacTagDown, j.Cur[0:n])
		}
		j.Phase = jacExchDown
	case jacExchDown:
		if j.Rank < j.Size-1 {
			e.SendrecvF64s(j.Rank+1, jacTagDown, j.Cur[rows*n:(rows+1)*n], j.Rank+1, jacTagUp, j.Cur[(rows+1)*n:])
		}
		j.Phase = jacCompute
	case jacCompute:
		e.Compute(sim.Time(float64(rows*n) * 6 / EffectiveFlopRate * float64(time.Second)))
		// Idempotent: recomputes New from Cur; the swap happens after and
		// the phase counter flips with it, without parking in between.
		for r := 1; r <= rows; r++ {
			out := j.New[r*n : (r+1)*n]
			above, mid, below := j.Cur[(r-1)*n:][:len(out)], j.Cur[r*n:][:len(out)], j.Cur[(r+1)*n:][:len(out)]
			for c := range out {
				up, down := above[c], below[c]
				left, right := up, down
				if c > 0 {
					left = mid[c-1]
				}
				if c < len(mid)-1 {
					right = mid[c+1]
				}
				out[c] = 0.25 * (up + down + left + right)
			}
		}
		// Preserve the fixed boundary ghosts.
		copy(j.New[0:n], j.Cur[0:n])
		copy(j.New[(rows+1)*n:], j.Cur[(rows+1)*n:])
		j.Cur, j.New = j.New, j.Cur
		j.It++
		if j.It%10 == 0 || j.It >= j.MaxIter {
			j.Phase = jacResidual
		} else {
			j.Phase = jacExchUp
		}
	case jacResidual:
		local := 0.0
		cur := j.Cur[n : (rows+1)*n]
		prev := j.New[n:][:len(cur)] // New holds the previous iterate
		for i, x := range cur {
			d := x - prev[i]
			local += float64(d * d)
		}
		res := e.AllreduceF64(mpi.OpSum, []float64{local})
		j.Residual = math.Sqrt(res[0])
		if j.Residual < j.Tol || j.It >= j.MaxIter {
			j.Iters = j.It
			j.Phase = jacDone
			return true
		}
		if j.ftEvery() > 0 && j.It%j.ftEvery() == 0 {
			j.Phase = jacFTExch
		} else {
			j.Phase = jacExchUp
		}
	case jacFTExch:
		// The phase flips only after the exchange completes, so a protocol
		// checkpoint taken while blocked in it restores into the same
		// Sendrecv (ftEncode is a pure function of the solver state).
		j.ftExchange(e, j.Rank, j.Size, j.It, j.ftEncode)
		j.Phase = jacExchUp
	}
	return false
}

// jacobiSnap is Jacobi's partner snapshot: the solver state at the
// exchange point (after the residual allreduce, about to start the next
// iteration).
type jacobiSnap struct {
	It       int
	Residual float64
	Cur, New []float64
}

// ftEncode appends the snapshot to dst's buffer, emptied.
func (j *Jacobi) ftEncode(dst []byte) []byte {
	j.snap = jacobiSnap{j.It, j.Residual, j.Cur, j.New}
	return mpi.AppendState(snapBuf(dst, 2, j.Cur, j.New), &j.snap)
}

func (j *Jacobi) ftDecode(blob []byte) bool {
	var s jacobiSnap
	if mpi.LoadState(blob, &s) != nil || len(s.Cur) != len(j.Cur) || len(s.New) != len(j.New) {
		return false
	}
	copy(j.Cur, s.Cur)
	copy(j.New, s.New)
	j.It, j.Residual, j.Phase = s.It, s.Residual, jacExchUp
	return true
}

// FTRollback restores the solver to its own snapshot at level.
func (j *Jacobi) FTRollback(level int) bool {
	s, ok := j.ownSnap(level)
	if !ok || !j.ftDecode(s.blob) {
		return false
	}
	j.ftTruncate(level)
	return true
}

// FTInstall loads a peer-held snapshot into a fresh replacement process.
func (j *Jacobi) FTInstall(blob []byte) bool {
	if !j.ftDecode(blob) {
		return false
	}
	j.ftInstall(j.It, 0, blob)
	return true
}

// Footprint is the two slabs.
func (j *Jacobi) Footprint() int64 {
	return int64(len(j.Cur)+len(j.New)) * 8
}

// Temperature returns the local value at (row, col) of this rank's slab
// (for verification).
func (j *Jacobi) Temperature(row, col int) float64 {
	if row < 0 || row >= j.rows() || col < 0 || col >= j.N {
		panic(fmt.Sprintf("nas: Temperature(%d,%d) out of slab", row, col))
	}
	return j.Cur[(row+1)*j.N+col]
}
