package ftckpt_test

// What a caller outside the module sees when a run description is
// refused: one error shape, *ftckpt.ConfigError, whichever layer found the
// fault and whichever entry point was used.

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"ftckpt"
)

// rejected is the table of Options no run is started for, with the field
// the *ConfigError must name.  None of the rows reaches the simulator.
func rejected() []struct {
	name  string
	o     ftckpt.Options
	field string
} {
	const t = time.Second
	replicated := func(n, replicas, quorum int) *ftckpt.StorageSpec {
		return &ftckpt.StorageSpec{Levels: []ftckpt.LevelSpec{{Kind: ftckpt.LevelServers, Servers: n,
			Replicas: replicas, WriteQuorum: quorum}}}
	}
	buffered := &ftckpt.StorageSpec{Levels: []ftckpt.LevelSpec{
		{Kind: ftckpt.LevelBuffer}, {Kind: ftckpt.LevelServers, Servers: 2}}}
	kill := func(storage *ftckpt.StorageSpec, f ftckpt.Failure) ftckpt.Options {
		return ftckpt.Options{Workload: ftckpt.WorkloadJacobi, NP: 8, Protocol: ftckpt.Pcl, Interval: t,
			Storage: storage, Failures: []ftckpt.Failure{f}}
	}
	return []struct {
		name  string
		o     ftckpt.Options
		field string
	}{
		{"np", ftckpt.Options{}, "NP"},
		{"protocol", ftckpt.Options{NP: 4, Protocol: "tcp"}, "Protocol"},
		{"platform", ftckpt.Options{NP: 4, Platform: "atm"}, "Platform"},
		{"workload", ftckpt.Options{NP: 4, Workload: "ft"}, "Workload"},
		{"mg is not a workload", ftckpt.Options{NP: 6, Workload: "mg"}, "Workload"},
		{"class", ftckpt.Options{NP: 4, Workload: ftckpt.WorkloadBT, Class: "Z"}, "Class"},
		{"recovery", ftckpt.Options{NP: 4, Recovery: "pray"}, "Recovery"},
		{"spares", ftckpt.Options{NP: 4, Spares: -1}, "Spares"},
		{"heartbeat period", ftckpt.Options{NP: 4, Heartbeat: &ftckpt.HeartbeatSpec{Period: -t}}, "Heartbeat.Period"},
		{"heartbeat timeout alone", ftckpt.Options{NP: 4, Heartbeat: &ftckpt.HeartbeatSpec{Timeout: t}}, "Heartbeat.Timeout"},
		{"servers vs storage", ftckpt.Options{NP: 4, Protocol: ftckpt.Pcl, Interval: t, Servers: 3,
			Storage: replicated(2, 0, 0)}, "Servers"},
		// The servers level's own limits, named on the level.
		{"replicas exceed servers", ftckpt.Options{NP: 4, Protocol: ftckpt.Pcl, Interval: t,
			Storage: replicated(2, 3, 0)}, "Storage.Levels[0].Replicas"},
		{"quorum exceeds replicas", ftckpt.Options{NP: 4, Protocol: ftckpt.Pcl, Interval: t,
			Storage: replicated(2, 2, 3)}, "Storage.Levels[0].WriteQuorum"},
		// The grid places one server per cluster and takes the servers
		// level alone.
		{"storage on grid", ftckpt.Options{NP: 4, Protocol: ftckpt.Pcl, Interval: t,
			Platform: ftckpt.PlatformGrid, Storage: buffered}, "Storage"},
		{"spares on grid", ftckpt.Options{NP: 4, Platform: ftckpt.PlatformGrid, Spares: 1}, "Spares"},
		{"grid too small", ftckpt.Options{NP: 1 << 20, Workload: ftckpt.WorkloadCG, Platform: ftckpt.PlatformGrid}, "NP"},

		// Each of the rest ran to a failure-free report, or failed from
		// inside rank 0, before Validate learned to refuse it.
		{"bt needs a square", ftckpt.Options{NP: 5}, "NP"},
		{"negative ppn", ftckpt.Options{NP: 4, ProcsPerNode: -1}, "ProcsPerNode"},
		{"node past the platform", kill(nil, ftckpt.KillNode(t, 99)), "Failures[0].Node"},
		{"negative node", kill(nil, ftckpt.KillNode(t, -1)), "Failures[0].Node"},
		{"buffer kill without a buffer level", kill(nil, ftckpt.KillBuffer(t, 0)), "Failures[0].Kind"},
		{"buffer kill off the compute nodes", kill(buffered, ftckpt.KillBuffer(t, 8)), "Failures[0].Node"},
		{"pfs kill without a pfs level", kill(buffered, ftckpt.KillPFS(t, 0)), "Failures[0].Kind"},
		{"negative kill time", kill(nil, ftckpt.KillRank(-t, 0)), "Failures[0].At"},
		{"unknown failure kind", kill(nil, ftckpt.Failure{At: t, Kind: 9}), "Failures[0].Kind"},
		{"negative interval", ftckpt.Options{NP: 4, Protocol: ftckpt.Pcl, Interval: -t}, "Interval"},
		// These two panicked, or were ignored, before Validate refused them.
		{"server mttf without servers", ftckpt.Options{Workload: ftckpt.WorkloadJacobi, NP: 4,
			ServerMTTF: time.Millisecond}, "ServerMTTF"},
		{"negative metrics snapshot", ftckpt.Options{Workload: ftckpt.WorkloadJacobi, NP: 4,
			MetricsSnapshot: -t}, "MetricsSnapshot"},
	}
}

// TestBuildConfigErrors: every rejected description comes back as a
// *ftckpt.ConfigError naming the field, through Run and through Chaos.
func TestBuildConfigErrors(t *testing.T) {
	chaos := ftckpt.ChaosSpec{Seed: 1, Kills: 1, From: time.Millisecond, Until: 2 * time.Millisecond}
	for _, tc := range rejected() {
		t.Run(tc.name, func(t *testing.T) {
			_, runErr := ftckpt.Run(tc.o)
			_, chaosErr := ftckpt.Chaos(tc.o, chaos)
			for entry, err := range map[string]error{"Run": runErr, "Chaos": chaosErr} {
				var ce *ftckpt.ConfigError
				if !errors.As(err, &ce) {
					t.Errorf("%s returned %v (%T), want a *ftckpt.ConfigError", entry, err, err)
				} else if ce.Field != tc.field {
					t.Errorf("%s: Field = %q, want %q (reason %q)", entry, ce.Field, tc.field, ce.Reason)
				}
			}
		})
	}
}

// TestChaosSpecErrors: a malformed ChaosSpec over a valid job is refused in
// the same shape, naming the ChaosSpec field.
func TestChaosSpecErrors(t *testing.T) {
	const ms = time.Millisecond
	job := ftckpt.Options{Workload: ftckpt.WorkloadJacobi, NP: 4, Protocol: ftckpt.Pcl, Interval: 5 * ms}
	noServers := ftckpt.Options{Workload: ftckpt.WorkloadJacobi, NP: 4}
	for _, tc := range []struct {
		name  string
		o     ftckpt.Options
		sp    ftckpt.ChaosSpec
		field string
	}{
		{"no kills", job, ftckpt.ChaosSpec{Until: ms}, "ChaosSpec.Kills"},
		{"empty window", job, ftckpt.ChaosSpec{Kills: 1, From: ms, Until: ms}, "ChaosSpec.Until"},
		{"window before time zero", job, ftckpt.ChaosSpec{Kills: 1, From: -ms, Until: ms}, "ChaosSpec.Until"},
		{"fractions past one", job, ftckpt.ChaosSpec{Kills: 1, Until: ms, ServerFrac: 0.8, NodeFrac: 0.5}, "ChaosSpec.ServerFrac"},
		{"server kills without servers", noServers, ftckpt.ChaosSpec{Kills: 1, Until: ms, ServerFrac: 0.5}, "ChaosSpec.ServerFrac"},
		{"buffer kills without a buffer level", job, ftckpt.ChaosSpec{Kills: 1, Until: ms, BufferFrac: 0.5}, "ChaosSpec.BufferFrac"},
		{"pfs kills without a pfs level", job, ftckpt.ChaosSpec{Kills: 1, Until: ms, PFSFrac: 0.5}, "ChaosSpec.PFSFrac"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ftckpt.Chaos(tc.o, tc.sp)
			var ce *ftckpt.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Chaos returned %v (%T), want a *ftckpt.ConfigError", err, err)
			}
			if ce.Field != tc.field {
				t.Errorf("Field = %q, want %q (reason %q)", ce.Field, tc.field, ce.Reason)
			}
		})
	}
}

// TestSweepSharedStorageSpec: points of one Sweep may share a
// *StorageSpec.  Validation writes defaults into the spec a job runs
// with, so each job must get a copy — sharing the caller's would be a
// data race between workers (run this under -race) and would hand the
// caller back a spec it did not write.
func TestSweepSharedStorageSpec(t *testing.T) {
	spec := func() *ftckpt.StorageSpec {
		return &ftckpt.StorageSpec{
			Levels: []ftckpt.LevelSpec{
				{Kind: ftckpt.LevelBuffer},
				{Kind: ftckpt.LevelServers, Servers: 2},
				{Kind: ftckpt.LevelPFS},
			},
			Incremental: true,
		}
	}
	shared, pristine := spec(), spec()
	points := make([]ftckpt.Options, 4)
	for i := range points {
		points[i] = ftckpt.Options{Workload: ftckpt.WorkloadJacobi, NP: 4, Protocol: ftckpt.Pcl,
			Interval: 5 * time.Millisecond, Storage: shared, Seed: int64(i + 1)}
	}
	if _, err := ftckpt.Sweep(points, ftckpt.SweepOptions{Jobs: 4}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, pristine) {
		t.Errorf("Sweep wrote into the caller's StorageSpec:\n  got  %+v\n  want %+v", shared, pristine)
	}
}
