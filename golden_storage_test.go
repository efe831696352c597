package ftckpt

// Golden determinism tests for the multi-level storage hierarchy: a
// two-level (buffer + replicated servers) job with incremental,
// compressed images, through a staging-buffer kill and a rank kill, must
// produce byte-identical artifacts across repeats and hold every chaos
// invariant under a buffer-kill-heavy random schedule.

import (
	"reflect"
	"testing"
	"time"

	"ftckpt/internal/chaos"
	"ftckpt/internal/failure"
)

// storageGolden is the hierarchy scenario of the golden suite: staged
// commits, async drains, a buffer loss between two waves and a rank
// kill whose restore falls through the dead buffer to the servers.
func storageGolden() Options {
	return Options{
		Workload:     WorkloadCGReal,
		NP:           8,
		ProcsPerNode: 2,
		Protocol:     Pcl,
		Interval:     5 * time.Millisecond,
		Storage: &StorageSpec{
			Levels: []LevelSpec{
				{Kind: LevelBuffer},
				{Kind: LevelServers, Servers: 2, Replicas: 2, WriteQuorum: 1,
					StoreRetries: 2, RetryBackoff: time.Millisecond},
			},
			Incremental: true,
			Compress:    true,
		},
		Heartbeat: &HeartbeatSpec{Period: 2 * time.Millisecond},
		Seed:      7,
		Failures: []Failure{
			KillBuffer(9*time.Millisecond, 1),
			KillRank(17*time.Millisecond, 3),
		},
	}
}

// TestGoldenDeterminismStorage pins the hierarchy recovery path and its
// reproducibility: the run must actually checkpoint, restart once, and
// repeat byte for byte.
func TestGoldenDeterminismStorage(t *testing.T) {
	o := storageGolden()
	rep, _, _, _ := goldenArtifacts(t, o)
	if rep.Waves == 0 || rep.Restarts == 0 {
		t.Fatalf("hierarchy scenario exercised no recovery: %+v", rep)
	}
	base, err := Run(Options{Workload: WorkloadCGReal, NP: 8, ProcsPerNode: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checksum != base.Checksum {
		t.Fatalf("recovered checksum %v != failure-free %v", rep.Checksum, base.Checksum)
	}
	checkGolden(t, o)
}

// TestGoldenStorageChaos runs the two-level hierarchy under a seeded
// random schedule biased toward staging-buffer kills and requires a
// schedule that really contains one, every recovery invariant to hold,
// and the full report to be identical across two executions.
func TestGoldenStorageChaos(t *testing.T) {
	o := storageGolden()
	o.Failures = nil
	sp := ChaosSpec{Kills: 3, BufferFrac: 0.5,
		From: 6 * time.Millisecond, Until: 16 * time.Millisecond}
	// Deterministically scan for a schedule with a buffer kill followed
	// by a rank kill: the staged-copy loss must be exercised, not just
	// scheduled.
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for seed := int64(1); seed <= 200; seed++ {
		sp.Seed = seed
		plan, err := chaos.Schedule(chaos.Spec{
			Seed: sp.Seed, Kills: sp.Kills, BufferFrac: sp.BufferFrac,
			From: sp.From, Until: sp.Until,
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var bufAt time.Duration
		ranksAfter := 0
		for _, ev := range plan {
			if ev.Kind == failure.KindBuffer {
				bufAt = ev.At
			}
		}
		for _, ev := range plan {
			if ev.Kind == failure.KindRank && bufAt > 0 && ev.At > bufAt {
				ranksAfter++
			}
		}
		if bufAt > 0 && ranksAfter >= 1 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no schedule with a buffer kill + later rank kill in seeds 1..200")
	}

	run := func() ChaosReport {
		rep, err := Chaos(o, sp)
		if err != nil {
			t.Fatalf("seed %d: %v", sp.Seed, err)
		}
		rep.Report.Metrics = nil
		return rep
	}
	r1 := run()
	if !r1.OK() {
		t.Fatalf("seed %d violations: %v", sp.Seed, r1.Violations)
	}
	if r1.Degraded == nil {
		if r1.Checksum == 0 || r1.Checksum != r1.Reference {
			t.Fatalf("seed %d: checksum %v, reference %v", sp.Seed, r1.Checksum, r1.Reference)
		}
	}
	r2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("chaos report differs across identical runs:\n  first  %+v\n  second %+v", r1, r2)
	}
}

// TestSharedImageRestoredTwice kills two ranks inside one checkpoint
// interval, so the job rolls back to the same committed wave twice.  The
// levels of the hierarchy share one image per (rank, wave) and a restore
// reads it in place: a restart that wrote through it would hand the
// second restart a poisoned image, and the checksum would drift from the
// failure-free run's.
func TestSharedImageRestoredTwice(t *testing.T) {
	for _, proto := range []Protocol{Pcl, Vcl} {
		t.Run(string(proto), func(t *testing.T) {
			col := NewCollector()
			o := Options{
				Workload: WorkloadCGReal, NP: 8, ProcsPerNode: 2, Seed: 7,
				Protocol: proto, Interval: 5 * time.Millisecond,
				Storage: &StorageSpec{
					Levels: []LevelSpec{
						{Kind: LevelBuffer},
						{Kind: LevelServers, Servers: 2, Replicas: 2, WriteQuorum: 1},
						{Kind: LevelPFS, Targets: 2, Stripes: 2},
					},
					Incremental: true,
					Compress:    true,
				},
				// Wave 3 (a delta image) commits at ~16-17ms, wave 4 not
				// before 24ms; each restart takes well under 1ms.
				Failures: []Failure{KillRank(17*time.Millisecond, 3), KillRank(19*time.Millisecond, 5)},
				Sink:     col,
			}
			rep, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			restarts := col.Filter(EvRestartBegin)
			if len(restarts) != 2 || restarts[0].Wave == 0 || restarts[0].Wave != restarts[1].Wave {
				t.Fatalf("want two restarts from one committed wave, got %+v", restarts)
			}
			base, err := Run(Options{Workload: WorkloadCGReal, NP: 8, ProcsPerNode: 2, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Checksum != base.Checksum {
				t.Fatalf("checksum %v after restoring wave %d twice, failure-free %v",
					rep.Checksum, restarts[0].Wave, base.Checksum)
			}
		})
	}
}
