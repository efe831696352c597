package nas_test

import (
	"math"
	"testing"

	"ftckpt/internal/ftpm"
	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
)

func TestJacobiPhysics(t *testing.T) {
	progs := runWorld(t, 4, func(rank int) mpi.Program {
		return nas.NewJacobi(rank, 4, 32, 2000)
	})
	top := progs[0].(*nas.Jacobi)
	bottom := progs[3].(*nas.Jacobi)
	// Heat flows from the hot top edge: monotone decreasing temperature.
	hot := top.Temperature(0, 16)
	cold := bottom.Temperature(7, 16)
	if hot <= cold || hot > 100 || cold < 0 {
		t.Fatalf("no gradient: top %v bottom %v", hot, cold)
	}
	if top.Residual >= bottom.Residual+1e-12 && top.Residual != bottom.Residual {
		t.Fatalf("ranks disagree on residual: %v vs %v", top.Residual, bottom.Residual)
	}
}

func TestJacobiProcessCountInvariance(t *testing.T) {
	field := func(np int) []float64 {
		progs := runWorld(t, np, func(rank int) mpi.Program {
			return nas.NewJacobi(rank, np, 16, 300)
		})
		var out []float64
		for _, p := range progs {
			j := p.(*nas.Jacobi)
			for r := 0; r < 16/np; r++ {
				for c := 0; c < 16; c++ {
					out = append(out, j.Temperature(r, c))
				}
			}
		}
		return out
	}
	a, b := field(1), field(4)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("field differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestJacobiRecoveryExact(t *testing.T) {
	mk := func(rank, size int) mpi.Program { return nas.NewJacobi(rank, size, 32, 400) }

	job, err := ftpm.NewJob(recoveryCfg(4, mk))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	want := job.Programs()[2].(*nas.Jacobi).Residual
	half := job.Kernel().Now() / 2

	for _, proto := range []ftpm.Proto{ftpm.ProtoVcl, ftpm.ProtoMlog} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			cfg := recoveryCfg(4, mk)
			cfg.Protocol = proto
			cfg.Interval = half / 4
			cfg.Failures = failureAtHalfTime(half, 1)
			job2, err := ftpm.NewJob(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := job2.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Restarts != 1 {
				t.Fatalf("restarts = %d", res.Restarts)
			}
			if got := job2.Programs()[2].(*nas.Jacobi).Residual; got != want {
				t.Fatalf("residual %v after recovery, want %v", got, want)
			}
		})
	}
}
