package ftpm

import (
	"encoding/gob"
	"testing"
	"time"

	"ftckpt/internal/failure"
	"ftckpt/internal/mpi"
	"ftckpt/internal/sim"
)

// haloProg exchanges halos with both neighbours using nonblocking
// receives completed by Waitall — the classic stencil idiom — to exercise
// checkpointing through the resumable Waitall path.
type haloProg struct {
	Rank, Size int
	Iters      int
	It         int
	Phase      int
	Val        float64
	Sum        float64
	Work       sim.Time
}

func init() { gob.Register(&haloProg{}) }

func (g *haloProg) Step(e *mpi.Engine) bool {
	left := (g.Rank - 1 + g.Size) % g.Size
	right := (g.Rank + 1) % g.Size
	switch g.Phase {
	case 0:
		e.Compute(g.Work)
		g.Phase = 1
	case 1:
		// Post both sends eagerly, then complete both receives; a
		// checkpoint can land inside the Waitall with one receive done.
		e.Isend(left, 11, mpi.EncodeF64(g.Val), 0)
		e.Isend(right, 12, mpi.EncodeF64(g.Val), 0)
		g.Phase = 2
	case 2:
		rl := e.Irecv(left, 12)
		rr := e.Irecv(right, 11)
		e.Waitall([]*mpi.Request{rl, rr})
		g.Val = 0.25*mpi.DecodeF64(rl.Packet.Data) + 0.25*mpi.DecodeF64(rr.Packet.Data) + 0.5*g.Val + 1
		g.It++
		if g.It >= g.Iters {
			g.Phase = 3
		} else {
			g.Phase = 0
		}
	case 3:
		s := e.AllreduceF64(mpi.OpSum, []float64{g.Val})
		g.Sum = s[0]
		return true
	}
	return false
}

func (g *haloProg) Footprint() int64 { return 256 << 10 }

// The Isends in phase 1 violate no contract: Isend never parks (it is
// eager and the engine charges no overhead under the test profile), so
// phase 1 is atomic; with per-call overheads each send can park, and a
// phase holding two sends would need a flag recording which one completed,
// so that a snapshot taken between them does not repeat the first.

func TestWaitallSurvivesRecovery(t *testing.T) {
	mk := func(rank, size int) mpi.Program {
		return &haloProg{Rank: rank, Size: size, Iters: 120, Work: time.Millisecond}
	}
	ref := baseCfg(6)
	ref.NewProgram = mk
	refJob, err := NewJob(ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refJob.Run(); err != nil {
		t.Fatal(err)
	}
	want := refJob.Programs()[0].(*haloProg).Sum
	if want == 0 {
		t.Fatal("degenerate reference")
	}

	for _, proto := range []Proto{ProtoPcl, ProtoVcl, ProtoMlog} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			cfg := baseCfg(6)
			cfg.NewProgram = mk
			cfg.Protocol = proto
			cfg.Interval = 12 * time.Millisecond
			cfg.RestartDelay = time.Millisecond
			cfg.Failures = failure.KillAt(55*time.Millisecond, 2)
			job, err := NewJob(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Restarts != 1 {
				t.Fatalf("restarts = %d", res.Restarts)
			}
			for r, p := range job.Programs() {
				if got := p.(*haloProg).Sum; got != want {
					t.Fatalf("rank %d sum %v, want %v", r, got, want)
				}
			}
		})
	}
}
