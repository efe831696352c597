package ftpm

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ftckpt/internal/failure"
	"ftckpt/internal/sim"
)

func mlogCfg(np int) Config {
	cfg := baseCfg(np)
	cfg.Protocol = ProtoMlog
	cfg.Interval = 25 * time.Millisecond
	return cfg
}

func TestMlogFailureFree(t *testing.T) {
	base, _ := runOK(t, baseCfg(6))
	res, progs := runOK(t, mlogCfg(6))
	// Pessimistic logging pays on every message: visibly slower than the
	// unprotected baseline even without failures.
	if res.Completion <= base.Completion {
		t.Fatalf("mlog (%v) not slower than baseline (%v)", res.Completion, base.Completion)
	}
	if res.LocalCkpts == 0 {
		t.Fatal("no independent checkpoints taken")
	}
	if res.LoggedMsgs == 0 {
		t.Fatal("no messages logged")
	}
	s := sums(progs)
	for _, v := range s[1:] {
		if v != s[0] {
			t.Fatalf("ranks disagree: %v", s)
		}
	}
}

func TestMlogSingleProcessRecovery(t *testing.T) {
	want := reference(t, 6)
	cfg := mlogCfg(6)
	cfg.Failures = failure.Plan{{At: 80 * time.Millisecond, Rank: 3}}
	res, progs := runOK(t, cfg)
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	for r, s := range sums(progs) {
		if s != want {
			t.Fatalf("rank %d checksum %v after local recovery, want %v", r, s, want)
		}
	}
}

func TestMlogRecoveryBeforeFirstCheckpoint(t *testing.T) {
	want := reference(t, 5)
	cfg := mlogCfg(5)
	cfg.Interval = 10 * time.Second // no checkpoint before the failure
	cfg.Failures = failure.Plan{{At: 40 * time.Millisecond, Rank: 2}}
	res, progs := runOK(t, cfg)
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	for _, s := range sums(progs) {
		if s != want {
			t.Fatalf("checksum %v, want %v", s, want)
		}
	}
}

func TestMlogMultipleFailuresDifferentRanks(t *testing.T) {
	want := reference(t, 6)
	cfg := mlogCfg(6)
	cfg.Failures = failure.Plan{
		{At: 50 * time.Millisecond, Rank: 1},
		{At: 120 * time.Millisecond, Rank: 4},
		{At: 200 * time.Millisecond, Rank: 1},
	}
	res, progs := runOK(t, cfg)
	if res.Restarts != 3 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	for _, s := range sums(progs) {
		if s != want {
			t.Fatalf("checksum %v, want %v", s, want)
		}
	}
}

// TestMlogNoGlobalRollback is the headline contrast with coordinated
// checkpointing: when one rank fails, the others do not roll back — their
// local checkpoint counters keep their pre-failure values and only one
// restart happens.
func TestMlogNoGlobalRollback(t *testing.T) {
	cfg := mlogCfg(6)
	cfg.Failures = failure.Plan{{At: 100 * time.Millisecond, Rank: 0}}
	res, _ := runOK(t, cfg)
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want exactly the failed rank's", res.Restarts)
	}
}

// TestMlogProperty: random failure schedules against random seeds keep
// the checksum identical to the failure-free run.
func TestMlogProperty(t *testing.T) {
	want := reference(t, 5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := mlogCfg(5)
		cfg.Seed = seed
		cfg.Interval = sim.Time(10+rng.Intn(40)) * time.Millisecond
		n := 1 + rng.Intn(2)
		for i := 0; i < n; i++ {
			cfg.Failures = append(cfg.Failures, failure.Event{
				At:   sim.Time(30+rng.Intn(250)) * time.Millisecond,
				Rank: rng.Intn(5),
			})
		}
		job, err := NewJob(cfg)
		if err != nil {
			return false
		}
		if _, err := job.Run(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, p := range job.Programs() {
			if p.(*ringProg).Sum != want {
				t.Logf("seed %d: checksum %v want %v", seed, p.(*ringProg).Sum, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolCostOrdering reproduces the qualitative comparison of the
// two families (§2 and the group's Cluster'04 study): in a failure-free
// cluster run, coordinated checkpointing costs less than pessimistic
// message logging, which pays a stable-storage round trip per message.
func TestProtocolCostOrdering(t *testing.T) {
	base, _ := runOK(t, baseCfg(6))

	pcl := baseCfg(6)
	pcl.Protocol = ProtoPcl
	pcl.Interval = 25 * time.Millisecond
	resPcl, _ := runOK(t, pcl)

	resMlog, _ := runOK(t, mlogCfg(6))

	if resPcl.Completion <= base.Completion {
		t.Fatalf("pcl (%v) not above baseline (%v)", resPcl.Completion, base.Completion)
	}
	if resMlog.Completion <= resPcl.Completion {
		t.Fatalf("mlog (%v) not above pcl (%v): pessimistic logging should dominate failure-free cost",
			resMlog.Completion, resPcl.Completion)
	}
}
