package chaos

import (
	"encoding/gob"
	"strings"
	"testing"
	"time"

	"ftckpt/internal/ckpt"
	"ftckpt/internal/failure"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// ringProg mirrors the ftpm test workload: compute, neighbour exchange
// and periodic collectives, with a checksum the harness can verify.
type ringProg struct {
	Rank, Size int
	Iters      int
	It         int
	Phase      int
	Val        float64
	Sum        float64
}

func init() { gob.Register(&ringProg{}) }

func (g *ringProg) Step(e *mpi.Engine) bool {
	switch g.Phase {
	case 0:
		e.Compute(time.Millisecond)
		g.Phase = 1
	case 1:
		right := (g.Rank + 1) % g.Size
		left := (g.Rank - 1 + g.Size) % g.Size
		p := e.Sendrecv(right, 10, mpi.EncodeF64(g.Val), 0, left, 10)
		g.Val = 0.5*g.Val + 0.5*mpi.DecodeF64(p.Data) + 1
		g.It++
		switch {
		case g.It == g.Iters:
			g.Phase = 3
		case g.It%5 == 0:
			g.Phase = 2
		default:
			g.Phase = 0
		}
	case 2:
		g.Sum = e.AllreduceF64(mpi.OpSum, []float64{g.Val})[0]
		g.Phase = 0
	case 3:
		g.Sum = e.AllreduceF64(mpi.OpSum, []float64{g.Val})[0]
		return true
	}
	return false
}

func (g *ringProg) Footprint() int64 { return 256 << 10 }

func chaosCfg(np int, proto ftpm.Proto) ftpm.Config {
	return ftpm.Config{
		NP: np,
		Topology: simnet.Topology{Clusters: []simnet.ClusterSpec{{
			Name: "c", Nodes: np + 7, NICBW: 100e6, Latency: 50 * time.Microsecond,
		}}},
		Profile: mpi.Profile{Name: "test"},
		NewProgram: func(rank, size int) mpi.Program {
			return &ringProg{Rank: rank, Size: size, Iters: 150, Val: float64(rank + 1)}
		},
		Protocol: proto,
		Interval: 12 * time.Millisecond,
		Storage: &ckpt.Spec{Levels: []ckpt.LevelSpec{{Kind: ckpt.LevelServers, Servers: 2,
			Replicas: 2, WriteQuorum: 1, StoreRetries: 3, RetryBackoff: 2 * time.Millisecond}}},
		RestartDelay: 2 * time.Millisecond,
		SpareNodes:   2,
		Deadline:     time.Hour,
		Seed:         1,
	}
}

func ringSum(p mpi.Program) float64 { return p.(*ringProg).Sum }

func TestScheduleDeterministicAndInRange(t *testing.T) {
	cfg := chaosCfg(6, ftpm.ProtoPcl)
	sp := Spec{Seed: 42, Kills: 40, ServerFrac: 0.25, NodeFrac: 0.25,
		From: 10 * time.Millisecond, Until: 200 * time.Millisecond}
	a, err := Schedule(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("plan sizes %d %d", len(a), len(b))
	}
	kinds := map[failure.Kind]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
		ev := a[i]
		kinds[ev.Kind]++
		if ev.At < sp.From || ev.At >= sp.Until {
			t.Fatalf("kill outside window: %v", ev)
		}
		if i > 0 && ev.At < a[i-1].At {
			t.Fatalf("plan not sorted at %d", i)
		}
		switch ev.Kind {
		case failure.KindRank:
			if ev.Rank < 0 || ev.Rank >= cfg.NP {
				t.Fatalf("rank victim out of range: %v", ev)
			}
		case failure.KindServer:
			if ev.Server < 0 || ev.Server >= cfg.Storage.Levels[0].Servers {
				t.Fatalf("server victim out of range: %v", ev)
			}
		case failure.KindNode:
			// Compute nodes only — the service node is never a victim.
			if ev.Node < 0 || ev.Node >= cfg.NP {
				t.Fatalf("node victim out of range: %v", ev)
			}
		}
	}
	for _, k := range []failure.Kind{failure.KindRank, failure.KindNode, failure.KindServer} {
		if kinds[k] == 0 {
			t.Fatalf("40 draws at 50/25/25 produced no %v kill: %v", k, kinds)
		}
	}
	if c, err := Schedule(Spec{Seed: 43, Kills: 40, ServerFrac: 0.25, NodeFrac: 0.25,
		From: sp.From, Until: sp.Until}, cfg); err != nil || len(c) != 40 {
		t.Fatal("reseeded schedule failed")
	} else {
		same := 0
		for i := range c {
			if c[i] == a[i] {
				same++
			}
		}
		if same == 40 {
			t.Fatal("different seeds produced identical plans")
		}
	}
}

func TestScheduleRejectsBadSpecs(t *testing.T) {
	cfg := chaosCfg(4, ftpm.ProtoPcl)
	bad := []Spec{
		{Seed: 1, Kills: 0, From: 0, Until: time.Second},
		{Seed: 1, Kills: 1, From: time.Second, Until: time.Second},
		{Seed: 1, Kills: 1, From: 0, Until: time.Second, ServerFrac: 0.8, NodeFrac: 0.5},
	}
	for i, sp := range bad {
		if _, err := Schedule(sp, cfg); err == nil {
			t.Fatalf("spec %d validated", i)
		}
	}
}

// findSeed scans seeds deterministically for a plan with at least one
// server kill and at least one later rank or node kill — the scenario
// the replication layer exists for.
func findSeed(t *testing.T, cfg ftpm.Config, sp Spec) Spec {
	t.Helper()
	for seed := int64(1); seed <= 200; seed++ {
		sp.Seed = seed
		plan, err := Schedule(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers, laterKills := 0, 0
		var srvAt sim.Time
		for _, ev := range plan {
			if ev.Kind == failure.KindServer {
				servers++
				if servers == 1 {
					srvAt = ev.At
				}
			}
		}
		for _, ev := range plan {
			if ev.Kind != failure.KindServer && ev.At > srvAt {
				laterKills++
			}
		}
		if servers == 1 && laterKills >= 1 {
			return sp
		}
	}
	t.Fatal("no seed in 1..200 produced one server kill followed by a process kill")
	return sp
}

// TestChaosRecoversWithReplication is the harness's headline assertion:
// under a schedule that kills a checkpoint server mid-run plus processes
// and nodes, every protocol recovers to the failure-free checksum with
// Replicas=2, and every event-stream invariant holds.
func TestChaosRecoversWithReplication(t *testing.T) {
	for _, proto := range []ftpm.Proto{ftpm.ProtoPcl, ftpm.ProtoVcl, ftpm.ProtoMlog} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			cfg := chaosCfg(6, proto)
			sp := findSeed(t, cfg, Spec{Kills: 3, ServerFrac: 0.34, NodeFrac: 0.2,
				From: 25 * time.Millisecond, Until: 150 * time.Millisecond})
			out, err := Run(Config{Job: cfg, Spec: sp, Checksum: ringSum})
			if err != nil {
				t.Fatalf("seed %d: %v", sp.Seed, err)
			}
			if out.Degraded != nil {
				t.Fatalf("seed %d degraded despite replication: %v (plan %v)", sp.Seed, out.Degraded, out.Plan)
			}
			if !out.OK() {
				t.Fatalf("seed %d violated invariants:\n%s\nplan %v",
					sp.Seed, strings.Join(out.Violations, "\n"), out.Plan)
			}
			if out.Result.ServerFailures != 1 {
				t.Fatalf("seed %d: %d server failures, plan %v", sp.Seed, out.Result.ServerFailures, out.Plan)
			}
			if out.Result.Restarts == 0 {
				t.Fatalf("seed %d: no recovery exercised, plan %v", sp.Seed, out.Plan)
			}
		})
	}
}

// TestChaosDegradesWithoutReplication: the same family of schedules with
// single-copy servers loses committed images with the killed server; the
// job must stop with a structured DegradedError — never panic — and the
// commits that did happen must still satisfy the (now size-1) quorum.
func TestChaosDegradesWithoutReplication(t *testing.T) {
	cfg := chaosCfg(6, ftpm.ProtoPcl)
	cfg.Storage, cfg.Servers = nil, 2
	// A server kill after the first commits, then at least one process
	// kill to force a recovery that needs the lost images.
	sp := findSeed(t, cfg, Spec{Kills: 3, ServerFrac: 0.34, NodeFrac: 0.2,
		From: 30 * time.Millisecond, Until: 150 * time.Millisecond})
	out, err := Run(Config{Job: cfg, Spec: sp, Checksum: ringSum})
	if err != nil {
		t.Fatalf("seed %d: %v", sp.Seed, err)
	}
	if out.Degraded == nil {
		t.Fatalf("seed %d recovered with a single replica of each image lost (plan %v)", sp.Seed, out.Plan)
	}
	if out.Degraded.Err == nil || out.Degraded.Wave < 1 {
		t.Fatalf("degraded error lacks context: %+v", out.Degraded)
	}
	if !out.OK() {
		t.Fatalf("seed %d violated invariants:\n%s", sp.Seed, strings.Join(out.Violations, "\n"))
	}
}

// TestChaosDeterministic: the whole harness — schedule, run, invariant
// checking, metrics — is byte-identical across repeats of one seed.
func TestChaosDeterministic(t *testing.T) {
	run := func() (Outcome, string) {
		cfg := chaosCfg(6, ftpm.ProtoVcl)
		sp := Spec{Seed: 11, Kills: 3, ServerFrac: 0.34, NodeFrac: 0.2,
			From: 25 * time.Millisecond, Until: 150 * time.Millisecond}
		out, err := Run(Config{Job: cfg, Spec: sp, Checksum: ringSum})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := out.Result.Metrics.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return out, sb.String()
	}
	a, am := run()
	b, bm := run()
	if len(a.Plan) != len(b.Plan) {
		t.Fatal("plans differ")
	}
	for i := range a.Plan {
		if a.Plan[i] != b.Plan[i] {
			t.Fatalf("plan event %d differs: %v vs %v", i, a.Plan[i], b.Plan[i])
		}
	}
	ra, rb := a.Result, b.Result
	ra.Metrics, rb.Metrics = nil, nil
	if ra != rb {
		t.Fatalf("results differ:\n%+v\n%+v", ra, rb)
	}
	if am != bm {
		t.Fatalf("metrics differ:\n%s\n%s", am, bm)
	}
	if strings.Join(a.Violations, ";") != strings.Join(b.Violations, ";") {
		t.Fatal("violations differ")
	}
	for i := range a.Checksums {
		if a.Checksums[i] != b.Checksums[i] {
			t.Fatalf("checksum %d differs", i)
		}
	}
}

// TestChaosULFMSparesExhausted is the in-job recovery campaign: with
// whole machines dying and a single spare, the first random kill must be
// repaired in place, and a later kill — pool empty — must degrade
// cleanly into the classic rollback-restart with no hang, no invariant
// breach, and the failure-free numerics.
func TestChaosULFMSparesExhausted(t *testing.T) {
	mkCfg := func() ftpm.Config {
		cfg := chaosCfg(8, ftpm.ProtoPcl)
		cfg.NewProgram = func(rank, size int) mpi.Program {
			return nas.NewJacobi(rank, size, 64, 400)
		}
		cfg.Interval = 25 * time.Millisecond
		cfg.Recovery = ftpm.RecoveryULFM
		cfg.FTEvery = 10
		cfg.SpareNodes = 1
		return cfg
	}
	// Two node kills (one rank per node), both after the first snapshot
	// exchanges, on distinct victims and far enough apart that the second
	// cannot land inside the first's (sub-millisecond) repair window.
	sp := Spec{Kills: 2, NodeFrac: 1, From: 30 * time.Millisecond, Until: 65 * time.Millisecond}
	for seed := int64(1); ; seed++ {
		if seed > 200 {
			t.Fatal("no seed in 1..200 produced two spread-out node kills on distinct victims")
		}
		sp.Seed = seed
		plan, err := Schedule(sp, mkCfg())
		if err != nil {
			t.Fatal(err)
		}
		if plan[0].Node != plan[1].Node && plan[1].At-plan[0].At >= 5*time.Millisecond {
			break
		}
	}
	out, err := Run(Config{Job: mkCfg(), Spec: sp,
		Checksum: func(p mpi.Program) float64 { return p.(*nas.Jacobi).Residual }})
	if err != nil {
		t.Fatalf("seed %d: %v", sp.Seed, err)
	}
	if out.Degraded != nil {
		t.Fatalf("seed %d degraded: %v (plan %v)", sp.Seed, out.Degraded, out.Plan)
	}
	if !out.OK() {
		t.Fatalf("seed %d violated invariants:\n%s\nplan %v",
			sp.Seed, strings.Join(out.Violations, "\n"), out.Plan)
	}
	if out.Result.Repairs != 1 {
		t.Fatalf("seed %d: Repairs = %d, want 1 (first kill repairs onto the spare; plan %v)",
			sp.Seed, out.Result.Repairs, out.Plan)
	}
	if out.Result.Restarts < 1 {
		t.Fatalf("seed %d: Restarts = %d, want >= 1 (pool exhausted; plan %v)",
			sp.Seed, out.Result.Restarts, out.Plan)
	}
}

// TestInvariantCheckerCatchesBreaches feeds the checker hand-built event
// streams that violate each invariant — the harness must not be a rubber
// stamp.
func TestInvariantCheckerCatchesBreaches(t *testing.T) {
	t.Run("commit without quorum", func(t *testing.T) {
		evs := []obs.Event{
			{Type: obs.EvImageStoreEnd, Rank: 0, Wave: 1},
			// rank 1's image never finished storing
			{Type: obs.EvWaveCommit, Rank: -1, Wave: 1},
		}
		v := checkInvariants(evs, 2, 1, ftpm.ProtoPcl)
		if len(v) == 0 {
			t.Fatal("missing image at commit not flagged")
		}
	})
	t.Run("stale store across rollback does not count", func(t *testing.T) {
		evs := []obs.Event{
			{Type: obs.EvImageStoreEnd, Rank: 0, Wave: 1},
			{Type: obs.EvRankKilled, Rank: 0, Wave: 0}, // rollback to scratch
			{Type: obs.EvWaveCommit, Rank: -1, Wave: 1},
		}
		v := checkInvariants(evs, 1, 1, ftpm.ProtoPcl)
		if len(v) == 0 {
			t.Fatal("commit backed only by a pre-rollback store not flagged")
		}
	})
	t.Run("double replay", func(t *testing.T) {
		evs := []obs.Event{
			{Type: obs.EvMessageReplayed, Rank: 0, Channel: 1, Seq: 7},
			{Type: obs.EvMessageReplayed, Rank: 0, Channel: 1, Seq: 7},
		}
		v := checkInvariants(evs, 2, 1, ftpm.ProtoMlog)
		if len(v) == 0 {
			t.Fatal("duplicate replay not flagged")
		}
	})
	t.Run("replay after new incarnation is fine", func(t *testing.T) {
		evs := []obs.Event{
			{Type: obs.EvMessageReplayed, Rank: 0, Channel: 1, Seq: 7},
			{Type: obs.EvRankKilled, Rank: 0, Wave: 1},
			{Type: obs.EvMessageReplayed, Rank: 0, Channel: 1, Seq: 7},
		}
		if v := checkInvariants(evs, 2, 1, ftpm.ProtoMlog); len(v) != 0 {
			t.Fatalf("legitimate re-replay flagged: %v", v)
		}
	})
	t.Run("vcl replay shortfall", func(t *testing.T) {
		evs := []obs.Event{
			{Type: obs.EvImageStoreEnd, Rank: 0, Wave: 1},
			{Type: obs.EvImageStoreEnd, Rank: 1, Wave: 1},
			{Type: obs.EvMessageLogged, Rank: 0, Wave: 1, Channel: 1},
			{Type: obs.EvWaveCommit, Rank: -1, Wave: 1},
			{Type: obs.EvRankKilled, Rank: 1, Wave: 1},
			{Type: obs.EvRestartBegin, Rank: -1, Wave: 1},
			// the logged message is never replayed
			{Type: obs.EvRestartEnd, Rank: -1, Wave: 1},
		}
		v := checkInvariants(evs, 2, 1, ftpm.ProtoVcl)
		if len(v) == 0 {
			t.Fatal("missing replay not flagged")
		}
	})
	t.Run("pcl must not replay", func(t *testing.T) {
		evs := []obs.Event{{Type: obs.EvMessageReplayed, Rank: 0, Channel: 1, Seq: 1}}
		if v := checkInvariants(evs, 1, 1, ftpm.ProtoPcl); len(v) == 0 {
			t.Fatal("pcl replay not flagged")
		}
	})
	t.Run("clean repair lifecycle passes", func(t *testing.T) {
		evs := []obs.Event{
			{Type: obs.EvProcFailed, Rank: 3},
			{Type: obs.EvRepairBegin, Rank: -1, Channel: 3},
			{Type: obs.EvRevoked, Rank: -1, Channel: 3},
			{Type: obs.EvRepairEnd, Rank: -1, Channel: 3},
		}
		if v := checkInvariants(evs, 4, 1, ftpm.ProtoPcl); len(v) != 0 {
			t.Fatalf("clean repair flagged: %v", v)
		}
	})
	t.Run("kill inside repair window", func(t *testing.T) {
		evs := []obs.Event{
			{Type: obs.EvProcFailed, Rank: 3},
			{Type: obs.EvRepairBegin, Rank: -1, Channel: 3},
			{Type: obs.EvRankKilled, Rank: 1, Wave: 0},
			{Type: obs.EvRepairEnd, Rank: -1, Channel: 3},
		}
		if v := checkInvariants(evs, 4, 1, ftpm.ProtoPcl); len(v) == 0 {
			t.Fatal("kill inside an open repair window not flagged")
		}
	})
	t.Run("unmatched repair end", func(t *testing.T) {
		evs := []obs.Event{{Type: obs.EvRepairEnd, Rank: -1, Channel: 3}}
		if v := checkInvariants(evs, 4, 1, ftpm.ProtoPcl); len(v) == 0 {
			t.Fatal("repair-end without a begin not flagged")
		}
	})
	t.Run("repair window never closed", func(t *testing.T) {
		evs := []obs.Event{
			{Type: obs.EvProcFailed, Rank: 3},
			{Type: obs.EvRepairBegin, Rank: -1, Channel: 3},
		}
		if v := checkInvariants(evs, 4, 1, ftpm.ProtoPcl); len(v) == 0 {
			t.Fatal("dangling repair window not flagged")
		}
	})
	t.Run("aborted repair resolves into restart", func(t *testing.T) {
		evs := []obs.Event{
			{Type: obs.EvProcFailed, Rank: 3},
			{Type: obs.EvRepairBegin, Rank: -1, Channel: 3},
			{Type: obs.EvRepairAbort, Rank: -1, Channel: 3},
			{Type: obs.EvRankKilled, Rank: 3, Wave: 0},
		}
		if v := checkInvariants(evs, 4, 1, ftpm.ProtoPcl); len(v) != 0 {
			t.Fatalf("abort-then-restart flagged: %v", v)
		}
		if v := checkInvariants(evs[:3], 4, 1, ftpm.ProtoPcl); len(v) == 0 {
			t.Fatal("abort without the fallback restart not flagged")
		}
	})
	t.Run("failure report without repair attempt", func(t *testing.T) {
		evs := []obs.Event{{Type: obs.EvProcFailed, Rank: 3}}
		if v := checkInvariants(evs, 4, 1, ftpm.ProtoPcl); len(v) == 0 {
			t.Fatal("orphan process-failure report not flagged")
		}
	})
}
