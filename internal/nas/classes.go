// Package nas provides the workloads of the paper's evaluation — the NAS
// parallel benchmarks BT and CG of NPB-2.3 — plus supporting real kernels.
//
// Two forms are provided, sharing the same resumable-Program execution
// model:
//
//   - Real kernels (CG, Jacobi) compute actual numerics at reduced
//     problem sizes.  They verify that checkpointing and rollback preserve
//     the numerical result bit-for-bit and serve as library examples.
//   - Class models (BTModel, CGModel) reproduce the benchmarks'
//     communication structure — iteration counts, message pattern,
//     message sizes and memory footprint for the NPB class — while
//     standing in for the floating-point work with calibrated virtual
//     compute time.  The paper's experiments measure protocol
//     overhead as a function of exactly these properties, so the models
//     regenerate the figures at any scale in seconds of wall-clock time.
//
// Calibration constants (EffectiveFlopRate, bytes-per-cell) are fitted to
// the era's hardware (2 GHz Opteron 248) and documented in EXPERIMENTS.md;
// the claims under reproduction are shapes and orderings, not absolute
// seconds.
//
// A product that feeds a sum is written float64(a*b): the explicit
// conversion rounds it, so no GOARCH fuses it into a multiply-add and a
// checksum or residual is the same bits on every host.
package nas

import (
	"fmt"

	"ftckpt/internal/mpi"
	"ftckpt/internal/simnet"
)

func init() {
	mpi.RegisterProgram("nas.CG", func() mpi.Program { return new(CG) })
	mpi.RegisterProgram("nas.BTModel", func() mpi.Program { return new(BTModel) })
	mpi.RegisterProgram("nas.CGModel", func() mpi.Program { return new(CGModel) })
	mpi.RegisterProgram("nas.Jacobi", func() mpi.Program { return new(Jacobi) })
}

// EffectiveFlopRate is the sustained per-process floating-point rate used
// to convert benchmark operation counts into virtual compute time.  It is
// fitted so the modelled BT.B completion times land in the paper's regime
// (several checkpoint waves fit a run at the tens-of-seconds intervals the
// evaluation uses); see EXPERIMENTS.md for the calibration note.
const EffectiveFlopRate = 120e6 // flop/s

// BTClassSpec describes one NPB class of BT.
type BTClassSpec struct {
	Name  string
	Grid  int     // cubic problem grid (class B: 102³)
	Iters int     // time steps
	Flops float64 // total floating-point operations
	// BytesPerCell sizes the resident set (solution, RHS, block matrices).
	BytesPerCell int64
}

// CGClassSpec describes one NPB class of CG.
type CGClassSpec struct {
	Name   string
	N      int     // matrix order
	NZper  int     // nonzeros per row
	Iters  int     // outer iterations
	Inner  int     // CG iterations per outer step
	Flops  float64 // total floating-point operations
	BytesN int64   // resident bytes per matrix row (values, indices, vectors)
}

// BT classes (NPB-2.3).
var (
	BTClassA = BTClassSpec{Name: "A", Grid: 64, Iters: 200, Flops: 168.3e9, BytesPerCell: 1000}
	BTClassB = BTClassSpec{Name: "B", Grid: 102, Iters: 200, Flops: 721.5e9, BytesPerCell: 1000}
	BTClassC = BTClassSpec{Name: "C", Grid: 162, Iters: 200, Flops: 2892.8e9, BytesPerCell: 1000}
)

// CG classes (NPB-2.3).
var (
	CGClassA = CGClassSpec{Name: "A", N: 14000, NZper: 11, Iters: 15, Inner: 25, Flops: 1.5e9, BytesN: 3000}
	CGClassB = CGClassSpec{Name: "B", N: 75000, NZper: 13, Iters: 75, Inner: 25, Flops: 54.7e9, BytesN: 5000}
	CGClassC = CGClassSpec{Name: "C", N: 150000, NZper: 15, Iters: 75, Inner: 25, Flops: 143.3e9, BytesN: 6000}
)

// BTClass looks a BT class up by name.
func BTClass(name string) (BTClassSpec, error) {
	switch name {
	case "A":
		return BTClassA, nil
	case "B":
		return BTClassB, nil
	case "C":
		return BTClassC, nil
	}
	return BTClassSpec{}, fmt.Errorf("nas: unknown BT class %q", name)
}

// CGClass looks a CG class up by name.
func CGClass(name string) (CGClassSpec, error) {
	switch name {
	case "A":
		return CGClassA, nil
	case "B":
		return CGClassB, nil
	case "C":
		return CGClassC, nil
	}
	return CGClassSpec{}, fmt.Errorf("nas: unknown CG class %q", name)
}

// MemPerProc returns the modelled resident set of one BT process.
func (c BTClassSpec) MemPerProc(np int) int64 {
	cells := int64(c.Grid) * int64(c.Grid) * int64(c.Grid)
	return cells * c.BytesPerCell / int64(np)
}

// MemPerProc returns the modelled resident set of one CG process.
func (c CGClassSpec) MemPerProc(np int) int64 {
	return int64(c.N) * c.BytesN / int64(np)
}

// Bytes re-exports the simnet byte unit for workload sizing.
type Bytes = simnet.Bytes
