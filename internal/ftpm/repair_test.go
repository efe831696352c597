package ftpm

import (
	"testing"
	"time"

	"ftckpt/internal/failure"
	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
)

// ulfmCfg is a small Jacobi job with in-job recovery enabled: partner
// snapshots every 10 iterations, coordinated blocking checkpoints.  Its
// runs end within 0.12 s of virtual time, so a 10 s deadline stops a run
// that keeps checkpointing without progress in seconds of host time, not
// minutes.
func ulfmCfg(np int) Config {
	cfg := baseCfg(np)
	cfg.NewProgram = func(rank, size int) mpi.Program {
		return nas.NewJacobi(rank, size, np*8, 400)
	}
	cfg.Protocol = ProtoPcl
	cfg.Interval = 25 * time.Millisecond
	cfg.Recovery = RecoveryULFM
	cfg.FTEvery = 10
	cfg.Deadline = 10 * time.Second
	return cfg
}

func jacobiResidual(t *testing.T, progs []mpi.Program) float64 {
	t.Helper()
	j, ok := progs[0].(*nas.Jacobi)
	if !ok {
		t.Fatalf("rank 0 is %T, want *nas.Jacobi", progs[0])
	}
	return j.Residual
}

// TestULFMRepairSurvivesKill is the tentpole acceptance: under a scripted
// kill, ULFM recovery completes with zero rollback-restarts, exactly one
// repair, positive lost work, and the same numerical answer as the
// failure-free run.
func TestULFMRepairSurvivesKill(t *testing.T) {
	ref, refProgs := runOK(t, ulfmCfg(8))
	want := jacobiResidual(t, refProgs)
	t.Logf("failure-free completion %v", ref.Completion)

	cfg := ulfmCfg(8)
	cfg.Failures = failure.Plan{{At: 60 * time.Millisecond, Rank: 3}}
	res, progs := runOK(t, cfg)
	if res.Restarts != 0 {
		t.Fatalf("ULFM recovery fell back to %d restarts", res.Restarts)
	}
	if res.Repairs != 1 {
		t.Fatalf("Repairs = %d, want 1", res.Repairs)
	}
	if res.LostWork <= 0 {
		t.Fatalf("LostWork = %v, want > 0", res.LostWork)
	}
	if got := jacobiResidual(t, progs); got != want {
		t.Fatalf("residual after repair %v, failure-free %v", got, want)
	}
	if res.Completion <= ref.Completion {
		t.Fatalf("repaired run completed at %v, not after the failure-free %v",
			res.Completion, ref.Completion)
	}
}

// TestULFMRepairVcl runs the same scenario under the non-blocking
// protocol: the repair swaps scheduler-driven protocol instances.
func TestULFMRepairVcl(t *testing.T) {
	cfg := ulfmCfg(8)
	cfg.Protocol = ProtoVcl
	ref, refProgs := runOK(t, cfg)
	want := jacobiResidual(t, refProgs)

	cfg = ulfmCfg(8)
	cfg.Protocol = ProtoVcl
	cfg.Failures = failure.Plan{{At: 60 * time.Millisecond, Rank: 3}}
	res, progs := runOK(t, cfg)
	if res.Restarts != 0 || res.Repairs != 1 {
		t.Fatalf("Restarts = %d, Repairs = %d, want 0/1", res.Restarts, res.Repairs)
	}
	if got := jacobiResidual(t, progs); got != want {
		t.Fatalf("residual after repair %v, failure-free %v", got, want)
	}
	_ = ref
}

// TestULFMFallbackBeforeFirstSnapshot: a kill before the first partner
// exchange cannot be repaired in place (no snapshot anywhere) and must
// fall back to the classic rollback-restart.
func TestULFMFallbackBeforeFirstSnapshot(t *testing.T) {
	cfg := ulfmCfg(8)
	cfg.Failures = failure.Plan{{At: 200 * time.Microsecond, Rank: 3}}
	res, _ := runOK(t, cfg)
	if res.Repairs != 0 {
		t.Fatalf("Repairs = %d, want 0 (no snapshot existed yet)", res.Repairs)
	}
	if res.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", res.Restarts)
	}
}

// TestULFMDeterminism: the repaired run is reproducible — identical
// completion time, repair count and numerics across repeats.
func TestULFMDeterminism(t *testing.T) {
	run := func() (Result, float64) {
		cfg := ulfmCfg(8)
		cfg.Failures = failure.Plan{{At: 60 * time.Millisecond, Rank: 3}}
		res, progs := runOK(t, cfg)
		return res, jacobiResidual(t, progs)
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1.Completion != r2.Completion || r1.Repairs != r2.Repairs || r1.LostWork != r2.LostWork || s1 != s2 {
		t.Fatalf("repair not deterministic:\n%v %v\n%v %v", r1, s1, r2, s2)
	}
}

// TestULFMSparesExhausted: with machines dying and one spare, the first
// failure repairs onto the spare and the second — pool empty — degrades
// cleanly into the classic overbooked rollback-restart.
func TestULFMSparesExhausted(t *testing.T) {
	cfg := ulfmCfg(8)
	cfg.Spares = 1
	cfg.Failures = failure.Plan{ // one rank per node: node n hosts rank n
		{At: 40 * time.Millisecond, Kind: failure.KindNode, Node: 3},
		{At: 60 * time.Millisecond, Kind: failure.KindNode, Node: 5},
	}
	res, _ := runOK(t, cfg)
	if res.Repairs != 1 {
		t.Fatalf("Repairs = %d, want 1 (first kill repairs onto the spare)", res.Repairs)
	}
	if res.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1 (second kill exhausts the pool)", res.Restarts)
	}
}

// TestULFMHeartbeatRepair: in-job recovery composes with the heartbeat
// detector — the silent death is declared by timeout, then repaired.
func TestULFMHeartbeatRepair(t *testing.T) {
	cfg := ulfmCfg(8)
	cfg.Heartbeat.Period = 2 * time.Millisecond
	cfg.Heartbeat.Timeout = 8 * time.Millisecond
	cfg.Failures = failure.Plan{{At: 60 * time.Millisecond, Rank: 3}}
	res, _ := runOK(t, cfg)
	if res.Restarts != 0 || res.Repairs != 1 {
		t.Fatalf("Restarts = %d, Repairs = %d, want 0/1", res.Restarts, res.Repairs)
	}
}
