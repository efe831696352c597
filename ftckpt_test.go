package ftckpt

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"ftckpt/internal/chaos"
	"ftckpt/internal/failure"
	"ftckpt/internal/ftpm"
)

func TestRunBaseline(t *testing.T) {
	rep, err := Run(Options{Workload: "cg-real", NP: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completion <= 0 || rep.Checksum == 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
	if rep.Waves != 0 {
		t.Fatalf("baseline checkpointed: %+v", rep)
	}
}

func TestRunPclRecoveryViaFacade(t *testing.T) {
	base, err := Run(Options{Workload: "cg-real", NP: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Options{
		Workload: "cg-real",
		NP:       4,
		Protocol: "pcl",
		Interval: 4 * time.Millisecond,
		Servers:  2,
		Seed:     1,
		Failures: []Failure{{At: 10 * time.Millisecond, Rank: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Fatalf("restarts = %d", rep.Restarts)
	}
	if rep.Checksum != base.Checksum {
		t.Fatalf("recovered checksum %v != baseline %v", rep.Checksum, base.Checksum)
	}
	if rep.Waves == 0 || rep.CheckpointMB == 0 {
		t.Fatalf("no checkpoint activity: %+v", rep)
	}
}

func TestRunVclOnGrid(t *testing.T) {
	rep, err := Run(Options{
		Workload: "cg", Class: "A",
		NP:       16,
		Protocol: "vcl",
		Interval: 100 * time.Millisecond,
		Platform: "grid",
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Waves == 0 {
		t.Fatalf("no waves: %+v", rep)
	}
}

func TestRunAllWorkloads(t *testing.T) {
	for _, w := range []Workload{WorkloadBT, WorkloadCG, WorkloadCGReal, WorkloadJacobi} {
		w := w
		t.Run(string(w), func(t *testing.T) {
			np := 4
			rep, err := Run(Options{Workload: w, Class: "A", NP: np, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completion <= 0 {
				t.Fatalf("report %+v", rep)
			}
		})
	}
}

func TestRunMlogRecovery(t *testing.T) {
	base, err := Run(Options{Workload: "cg-real", NP: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Options{
		Workload: "cg-real",
		NP:       4,
		Protocol: "mlog",
		Interval: 10 * time.Millisecond,
		Servers:  2,
		Seed:     9,
		Failures: []Failure{{At: base.Completion / 2, Rank: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Fatalf("restarts = %d", rep.Restarts)
	}
	if rep.Checksum != base.Checksum {
		t.Fatalf("recovered checksum %v != %v", rep.Checksum, base.Checksum)
	}
	if rep.LoggedMessages == 0 {
		t.Fatal("no messages logged")
	}
}

func TestSweepMatchesSequential(t *testing.T) {
	points := []Options{
		{Workload: "cg-real", NP: 4, Seed: 1},
		{Workload: "cg-real", NP: 4, Protocol: "pcl", Interval: 4 * time.Millisecond, Servers: 2, Seed: 1},
		{Workload: "cg-real", NP: 4, Protocol: "pcl", Interval: 8 * time.Millisecond, Servers: 2, Seed: 1},
		{Workload: "cg-real", NP: 4, Protocol: "vcl", Interval: 8 * time.Millisecond, Servers: 2, Seed: 1},
	}

	// Sequential ground truth: a plain loop of Run calls sharing one
	// registry.
	seqReg := NewMetrics()
	var seqReps []Report
	for _, p := range points {
		p.Metrics = seqReg
		rep, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		seqReps = append(seqReps, rep)
	}

	parReg := NewMetrics()
	parReps, err := Sweep(points, SweepOptions{Jobs: 4, Metrics: parReg})
	if err != nil {
		t.Fatal(err)
	}

	// Reports must match field for field.  The Metrics pointers differ by
	// construction (shared registry vs per-point registries), so blank
	// them before comparing.
	for i := range seqReps {
		seqReps[i].Metrics = nil
		parReps[i].Metrics = nil
	}
	if !reflect.DeepEqual(seqReps, parReps) {
		t.Errorf("reports differ:\nseq: %+v\npar: %+v", seqReps, parReps)
	}

	var seqJSON, parJSON strings.Builder
	if err := seqReg.WriteJSON(&seqJSON); err != nil {
		t.Fatal(err)
	}
	if err := parReg.WriteJSON(&parJSON); err != nil {
		t.Fatal(err)
	}
	if seqJSON.String() != parJSON.String() {
		t.Errorf("merged sweep metrics differ from shared-registry sequential metrics:\nseq: %s\npar: %s",
			seqJSON.String(), parJSON.String())
	}
}

func TestSweepErrorNamesPoint(t *testing.T) {
	points := []Options{
		{Workload: "cg-real", NP: 4, Seed: 1},
		{Workload: "nope", NP: 4, Seed: 1},
	}
	_, err := Sweep(points, SweepOptions{Jobs: 2})
	if err == nil {
		t.Fatal("bad point accepted")
	}
	if !strings.Contains(err.Error(), "sweep point 1") {
		t.Fatalf("error does not name the point: %v", err)
	}
}

// TestSweepErrorKeepsType checks the sweep-point prefix wraps rather than
// flattens the point's error: a caller of Sweep can still tell a rejected
// configuration from a job that stopped degraded.
func TestSweepErrorKeepsType(t *testing.T) {
	good := Options{Workload: "cg-real", NP: 4, Protocol: "pcl", Interval: 4 * time.Millisecond, Servers: 1, Seed: 1}

	// The only server dies after wave 1 commits (~6.3 ms) with the only
	// copy of every image; the rank kill finds nothing to restart from.
	lost := good
	lost.Failures = []Failure{KillServer(8*time.Millisecond, 0), KillRank(10*time.Millisecond, 2)}
	_, err := Sweep([]Options{good, lost}, SweepOptions{Jobs: 2})
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Errorf("lost server: Sweep returned %v (%T), want a *DegradedError in the chain", err, err)
	} else if deg.Wave < 1 {
		t.Errorf("degraded at wave %d, want a committed wave", deg.Wave)
	}

	bad := good
	bad.Failures = []Failure{KillRank(time.Millisecond, 4)}
	_, err = Sweep([]Options{good, bad}, SweepOptions{Jobs: 2})
	var ce *ftpm.ConfigError
	if !errors.As(err, &ce) {
		t.Errorf("KillRank(4) of 4: Sweep returned %v (%T), want a *ftpm.ConfigError in the chain", err, err)
	} else if ce.Field != "Failures[0].Rank" {
		t.Errorf("ConfigError.Field = %q, want Failures[0].Rank", ce.Field)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{Workload: "nope", NP: 4}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run(Options{Workload: "bt", NP: 4, Platform: "token-ring"}); err == nil {
		t.Fatal("unknown platform accepted")
	}
	if _, err := Run(Options{}); err == nil {
		t.Fatal("zero options accepted")
	}
}

func chaosOpts(replicas int) Options {
	return Options{
		Workload: "cg-real",
		NP:       4,
		Protocol: "pcl",
		Interval: 4 * time.Millisecond,
		Storage: &StorageSpec{Levels: []LevelSpec{{Kind: LevelServers, Servers: 2,
			Replicas: replicas, WriteQuorum: 1, StoreRetries: 2, RetryBackoff: time.Millisecond}}},
		Seed: 1,
	}
}

// chaosSeed deterministically scans for a schedule with one server kill
// followed by a process kill — the scenario replication exists for.
func chaosSeed(t *testing.T, o Options, sp ChaosSpec) ChaosSpec {
	t.Helper()
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 200; seed++ {
		sp.Seed = seed
		plan, err := chaos.Schedule(chaos.Spec{
			Seed: sp.Seed, Kills: sp.Kills,
			ServerFrac: sp.ServerFrac, NodeFrac: sp.NodeFrac,
			From: sp.From, Until: sp.Until,
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers := 0
		var srvAt time.Duration
		for _, ev := range plan {
			if ev.Kind == failure.KindServer {
				servers++
				srvAt = ev.At
			}
		}
		ranksAfter := 0
		for _, ev := range plan {
			if ev.Kind == failure.KindRank && ev.At > srvAt {
				ranksAfter++
			}
		}
		if servers == 1 && ranksAfter >= 1 {
			return sp
		}
	}
	t.Fatal("no suitable chaos seed in 1..200")
	return sp
}

func TestChaosRecoveryViaFacade(t *testing.T) {
	o := chaosOpts(2)
	// The failure-free run completes at ~17ms (2 waves): kills inside
	// [6ms, 14ms) land after the first commit and before completion.
	sp := chaosSeed(t, o, ChaosSpec{Kills: 2, ServerFrac: 0.5,
		From: 6 * time.Millisecond, Until: 14 * time.Millisecond})
	rep, err := Chaos(o, sp)
	if err != nil {
		t.Fatalf("seed %d: %v", sp.Seed, err)
	}
	if rep.Degraded != nil {
		t.Fatalf("seed %d degraded despite replication: %v (plan %v)", sp.Seed, rep.Degraded, rep.Plan)
	}
	if !rep.OK() {
		t.Fatalf("seed %d violations: %v", sp.Seed, rep.Violations)
	}
	if rep.Report.ServerFailures != 1 || rep.Report.Restarts == 0 {
		t.Fatalf("seed %d: serverFailures=%d restarts=%d",
			sp.Seed, rep.Report.ServerFailures, rep.Report.Restarts)
	}
	if rep.Checksum == 0 || rep.Checksum != rep.Reference {
		t.Fatalf("seed %d: checksum %v, reference %v", sp.Seed, rep.Checksum, rep.Reference)
	}
}

func TestChaosDegradedViaFacade(t *testing.T) {
	o := chaosOpts(1)
	o.Storage.Levels[0].StoreRetries = 0
	sp := chaosSeed(t, o, ChaosSpec{Kills: 2, ServerFrac: 0.5,
		From: 6 * time.Millisecond, Until: 14 * time.Millisecond})
	rep, err := Chaos(o, sp)
	if err != nil {
		t.Fatalf("seed %d: %v", sp.Seed, err)
	}
	if rep.Degraded == nil {
		t.Fatalf("seed %d recovered with single-copy images lost (plan %v)", sp.Seed, rep.Plan)
	}
	if rep.Degraded.Err == nil {
		t.Fatalf("degraded error lacks a cause: %+v", rep.Degraded)
	}
	if !rep.OK() {
		t.Fatalf("seed %d violations: %v", sp.Seed, rep.Violations)
	}
}
