package ftpm

import (
	"testing"
	"time"

	"ftckpt/internal/failure"
	"ftckpt/internal/mpi"
	"ftckpt/internal/sim"
)

// skewProg makes rank 0 compute long before each allreduce while everyone
// else arrives immediately — so a checkpoint wave triggered mid-step is
// guaranteed to catch ranks parked inside the collective.
type skewProg struct {
	Rank, Size int
	Rounds     int
	R          int
	Phase      int
	Val        float64
	Skew       sim.Time
}

func init() { mpi.RegisterProgram("ftpm.skewProg", func() mpi.Program { return new(skewProg) }) }

func (s *skewProg) Step(e *mpi.Engine) bool {
	switch s.Phase {
	case 0:
		if s.Rank == 0 {
			e.Compute(s.Skew)
		}
		s.Phase = 1
	case 1:
		out := e.AllreduceF64(mpi.OpSum, []float64{s.Val + float64(s.R)})
		s.Val = out[0] / float64(s.Size)
		s.R++
		if s.R >= s.Rounds {
			return true
		}
		s.Phase = 0
	}
	return false
}

func (s *skewProg) Footprint() int64 { return 64 << 10 }

// TestCheckpointInsideCollective verifies the serialized-engine-state
// design (DESIGN.md §5.2): a wave lands while most ranks are blocked
// inside an allreduce, the images carry the in-flight collective state,
// and a rollback restores and resumes mid-collective with the exact
// failure-free result.
func TestCheckpointInsideCollective(t *testing.T) {
	mk := func(rank, size int) mpi.Program {
		return &skewProg{Rank: rank, Size: size, Rounds: 40, Skew: 10 * time.Millisecond}
	}

	ref := baseCfg(6)
	ref.NewProgram = mk
	job, err := NewJob(ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	want := job.Programs()[1].(*skewProg).Val

	for _, proto := range []Proto{ProtoPcl, ProtoVcl} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			cfg := baseCfg(6)
			cfg.NewProgram = mk
			cfg.Protocol = proto
			// Waves land ~mid-step, while ranks 1..5 sit inside the
			// allreduce waiting for rank 0's skewed arrival.
			cfg.Interval = 25 * time.Millisecond
			cfg.Failures = failure.Plan{{At: 130 * time.Millisecond, Rank: 4}}
			job, err := NewJob(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Restarts != 1 || res.WavesCommitted == 0 {
				t.Fatalf("restarts=%d waves=%d", res.Restarts, res.WavesCommitted)
			}
			// At least one committed image must have captured an
			// in-flight collective — the point of this scenario.
			caught := 0
			for _, srv := range job.servers {
				for r := 0; r < cfg.NP; r++ {
					for w := 1; w <= res.LastWave; w++ {
						if img, err := srv.Image(r, w); err == nil && img.Engine.Coll != nil {
							caught++
						}
					}
				}
			}
			if caught == 0 {
				t.Fatal("no image captured a mid-collective process; scenario did not exercise the path")
			}
			for r, p := range job.Programs() {
				if got := p.(*skewProg).Val; got != want {
					t.Fatalf("rank %d value %v after mid-collective recovery, want %v", r, got, want)
				}
			}
			t.Logf("%s: %d images captured mid-collective state", proto, caught)
		})
	}
}
