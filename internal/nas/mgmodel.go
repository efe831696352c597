package nas

import (
	"fmt"
	"math/bits"
	"time"

	"ftckpt/internal/mpi"
	"ftckpt/internal/sim"
)

// MGClassSpec describes one NPB class of MG.
type MGClassSpec struct {
	Name   string
	Grid   int // cubic fine-grid side
	Iters  int
	Flops  float64
	BytesC int64 // resident bytes per fine-grid cell
}

// MG classes (NPB-2.3).
var (
	MGClassA = MGClassSpec{Name: "A", Grid: 256, Iters: 4, Flops: 3.6e9, BytesC: 60}
	MGClassB = MGClassSpec{Name: "B", Grid: 256, Iters: 20, Flops: 18.1e9, BytesC: 60}
	MGClassC = MGClassSpec{Name: "C", Grid: 512, Iters: 20, Flops: 146.9e9, BytesC: 60}
)

// MGClass looks an MG class up by name.
func MGClass(name string) (MGClassSpec, error) {
	switch name {
	case "A":
		return MGClassA, nil
	case "B":
		return MGClassB, nil
	case "C":
		return MGClassC, nil
	}
	return MGClassSpec{}, fmt.Errorf("nas: unknown MG class %q", name)
}

// MemPerProc returns the modelled resident set of one MG process.
func (c MGClassSpec) MemPerProc(np int) int64 {
	cells := int64(c.Grid) * int64(c.Grid) * int64(c.Grid)
	// The V-cycle hierarchy adds ~1/7 over the fine grid.
	return cells * c.BytesC * 8 / 7 / int64(np)
}

// MGModel reproduces the communication structure of NAS MG: each
// iteration runs a V-cycle down to the coarsest grid and back, exchanging
// halos whose size halves per level (so the coarse levels are pure
// latency), with a residual norm reduction per iteration.  np must be a
// power of two.
type MGModel struct {
	Rank, Size int
	Dim        int // log2(Size)
	Iters      int
	Levels     int
	It         int
	Level      int
	Up         bool
	Phase      int
	CompLevel  sim.Time // compute per level visit
	FineBytes  int64    // halo bytes at the finest level
	Mem        int64
	Local      float64
	Checksum   float64
}

// CheckMGProcs reports why np processes cannot run MG: its halving
// decomposition needs a power of two.  Nil means they can.
func CheckMGProcs(np int) error {
	if np&(np-1) != 0 {
		return fmt.Errorf("MG needs a power-of-two process count, got %d", np)
	}
	return nil
}

// NewMGModel builds rank's MG model for an NPB class.  np must pass
// CheckMGProcs.
func NewMGModel(class MGClassSpec, rank, np int) *MGModel {
	if err := CheckMGProcs(np); err != nil {
		panic("nas: " + err.Error())
	}
	levels := bits.Len(uint(class.Grid)) - 3 // stop at an 8³ coarse grid
	if levels < 2 {
		levels = 2
	}
	visits := 2*levels - 1
	perVisit := class.Flops / float64(class.Iters*visits) / float64(np) / EffectiveFlopRate
	g := class.Grid
	face := int64(g) * int64(g) * 8 / int64(np) * 4 // 4 halo faces per visit, aggregated
	return &MGModel{
		Rank: rank, Size: np,
		Dim:       bits.TrailingZeros(uint(np)),
		Iters:     class.Iters,
		Levels:    levels,
		CompLevel: sim.Time(perVisit * float64(time.Second)),
		FineBytes: face,
		Mem:       class.MemPerProc(np),
		Local:     float64(rank + 1),
	}
}

// MG model phases (per level visit).
const (
	mgComp = iota
	mgExchange
	mgNorm
	mgFinal
)

const mgTag = 40

// haloBytes at the current level: halves per coarsening.
func (m *MGModel) haloBytes() int64 {
	b := m.FineBytes >> uint(2*m.Level) // area shrinks 4x per level
	if b < 64 {
		b = 64
	}
	return b
}

// partner for the current level's halo exchange.
func (m *MGModel) partner() int {
	if m.Size == 1 {
		return m.Rank
	}
	return m.Rank ^ (1 << (m.Level % m.Dim))
}

// Step advances one phase.
func (m *MGModel) Step(e *mpi.Engine) bool {
	switch m.Phase {
	case mgComp:
		e.Compute(m.CompLevel)
		m.Phase = mgExchange
	case mgExchange:
		if p := m.partner(); p != m.Rank {
			pkt := e.Sendrecv(p, mgTag, mpi.EncodeF64(m.Local), m.haloBytes(), p, mgTag)
			m.Local = 0.5*m.Local + 0.5*mpi.DecodeF64(pkt.Data[:8]) + 1
		}
		// Walk the V: down to the coarsest level, then back up.
		if !m.Up {
			m.Level++
			if m.Level >= m.Levels-1 {
				m.Up = true
			}
		} else {
			m.Level--
			if m.Level <= 0 {
				m.Level = 0
				m.Up = false
				m.Phase = mgNorm
				return false
			}
		}
		m.Phase = mgComp
	case mgNorm:
		s := e.AllreduceF64(mpi.OpSum, []float64{m.Local})
		m.Checksum = s[0]
		m.It++
		if m.It >= m.Iters {
			m.Phase = mgFinal
		} else {
			m.Phase = mgComp
		}
	case mgFinal:
		s := e.AllreduceF64(mpi.OpSum, []float64{m.Local})
		m.Checksum = s[0]
		return true
	}
	return false
}

// Footprint reports the class resident set per process.
func (m *MGModel) Footprint() int64 { return m.Mem }
