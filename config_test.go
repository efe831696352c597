package ftckpt

// Table tests for buildConfig: the typed facade must accept every
// supported enum value (and the legacy string literals, which still
// compile through the string-backed types) and forward the
// Heartbeat/Storage specs.  What a run is rejected for is
// pinned from outside the package, in reject_test.go.

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"ftckpt/internal/failure"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/sim"
)

func TestBuildConfigMatrix(t *testing.T) {
	platforms := []Platform{PlatformEthernet, PlatformMyrinetGM, PlatformMyrinetTCP, PlatformGrid}
	protocols := []Protocol{ProtocolNone, Pcl, Vcl, Mlog}
	for _, pl := range platforms {
		for _, pr := range protocols {
			o := Options{
				Workload: WorkloadBT, Class: ClassA,
				NP: 16, ProcsPerNode: 2,
				Protocol: pr, Interval: time.Second,
				Platform: pl, Seed: 1,
			}
			cfg, err := buildConfig(o)
			if err != nil {
				t.Fatalf("platform %q protocol %q: %v", pl, pr, err)
			}
			if got, want := cfg.Protocol, pr; got != want {
				t.Errorf("platform %q protocol %q: cfg.Protocol = %q, want %q", pl, pr, got, want)
			}
			if pr != ProtocolNone && pl != PlatformGrid && cfg.Servers != 1 {
				t.Errorf("platform %q protocol %q: default Servers = %d, want 1", pl, pr, cfg.Servers)
			}
		}
	}
}

func TestBuildConfigWorkloads(t *testing.T) {
	for _, w := range []Workload{WorkloadBT, WorkloadCG, WorkloadMG, WorkloadLU, WorkloadCGReal, WorkloadEP, WorkloadJacobi} {
		o := Options{Workload: w, Class: ClassA, NP: 16, Seed: 1}
		if _, err := buildConfig(o); err != nil {
			t.Errorf("workload %q: %v", w, err)
		}
	}
	// The zero value defaults to BT / class B.
	if _, err := buildConfig(Options{NP: 16}); err != nil {
		t.Errorf("zero-value workload: %v", err)
	}
}

// TestBuildConfigLegacyLiterals pins the compatibility contract: the
// pre-facade string literals still compile and validate, because the enum
// types are string-backed.
func TestBuildConfigLegacyLiterals(t *testing.T) {
	o := Options{
		Workload: "cg", Class: "A", NP: 16, ProcsPerNode: 2,
		Protocol: "pcl", Interval: time.Second, Platform: "myrinet-tcp",
	}
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatalf("legacy literals: %v", err)
	}
	if cfg.Protocol != ftpm.ProtoPcl {
		t.Errorf("cfg.Protocol = %q, want %q", cfg.Protocol, ftpm.ProtoPcl)
	}
}

// TestBuildConfigSpecConversion pins the conversion contract: the
// Heartbeat spec sets ftpm's HeartbeatPeriod/Timeout, Storage reaches the
// job with its servers level as written, and Servers is the one-level
// spec it stands for once validated.
func TestBuildConfigSpecConversion(t *testing.T) {
	cfg, err := buildConfig(Options{
		NP: 4, Protocol: Pcl, Interval: time.Second, Servers: 3,
		Heartbeat: &HeartbeatSpec{Period: 10 * time.Millisecond, Timeout: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("specs: %v", err)
	}
	if cfg.HeartbeatPeriod != 10*time.Millisecond || cfg.HeartbeatTimeout != 50*time.Millisecond {
		t.Errorf("heartbeat spec not forwarded: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("shorthand validation: %v", err)
	}
	want := []LevelSpec{{Kind: LevelServers, Servers: 3, Replicas: 1, WriteQuorum: 1}}
	if cfg.Servers != 0 || cfg.Storage == nil || !reflect.DeepEqual(cfg.Storage.Levels, want) {
		t.Errorf("Servers 3 validated to Servers=%d Storage=%+v, want the levels %+v", cfg.Servers, cfg.Storage, want)
	}

	tier := LevelSpec{Kind: LevelServers, Servers: 3,
		Replicas: 2, WriteQuorum: 1, StoreRetries: 5, RetryBackoff: time.Millisecond}
	cfg, err = buildConfig(Options{
		NP: 4, Protocol: Pcl, Interval: time.Second,
		Storage: &StorageSpec{Levels: []LevelSpec{tier}},
	})
	if err != nil {
		t.Fatalf("storage spec: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("storage spec validation: %v", err)
	}
	if cfg.Storage == nil || !reflect.DeepEqual(cfg.Storage.Levels, []LevelSpec{tier}) {
		t.Errorf("servers level not forwarded as written: %+v", cfg.Storage)
	}

	// On the grid the same level keeps its replication; the layout's one
	// server per cluster replaces the count.
	cfg, err = buildConfig(Options{
		NP: 16, ProcsPerNode: 2, Protocol: Pcl, Interval: time.Second, Platform: PlatformGrid,
		Storage: &StorageSpec{Levels: []LevelSpec{tier}},
	})
	if err != nil {
		t.Fatalf("grid storage spec: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("grid storage spec validation: %v", err)
	}
	grid := tier
	grid.Servers = len(cfg.ServerNodes)
	if !reflect.DeepEqual(cfg.Storage.Levels, []LevelSpec{grid}) {
		t.Errorf("grid servers level %+v, want %+v", cfg.Storage.Levels, grid)
	}
}

// TestBuildConfigStorageHierarchy checks the multi-level conversion:
// facade durations become sim times, the PFS targets widen the topology,
// and the planner knobs ride along.
func TestBuildConfigStorageHierarchy(t *testing.T) {
	cfg, err := buildConfig(Options{
		Workload: WorkloadCG, NP: 8, ProcsPerNode: 2, Protocol: Pcl, Interval: time.Second,
		Storage: &StorageSpec{
			Levels: []LevelSpec{
				{Kind: LevelBuffer, Bandwidth: 3e9, Latency: 100 * time.Microsecond, Capacity: 1 << 30, Retention: 2},
				{Kind: LevelServers, Servers: 2, Replicas: 2},
				{Kind: LevelPFS, Targets: 3, Stripes: 2, Bandwidth: 5e8},
			},
			Incremental: true, FullEvery: 3,
			Compress: true, CompressRatio: 0.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sp := cfg.Storage
	if sp == nil || len(sp.Levels) != 3 {
		t.Fatalf("Storage = %+v", sp)
	}
	if !sp.Incremental || sp.FullEvery != 3 || !sp.Compress || sp.CompressRatio != 0.5 {
		t.Errorf("planner knobs lost: %+v", sp)
	}
	if got := sp.Levels[0].Latency; got != sim.Time(100*time.Microsecond) {
		t.Errorf("buffer latency = %v", got)
	}
	// Topology must fit compute + servers + service + PFS target nodes.
	computeNodes := 4
	need := computeNodes + 2 + 1 + 3
	if cfg.Topology.TotalNodes() < need {
		t.Errorf("topology has %d nodes, need %d with the PFS targets", cfg.Topology.TotalNodes(), need)
	}
}

func TestBuildConfigFailureConstructors(t *testing.T) {
	cfg, err := buildConfig(Options{
		Workload: WorkloadCG, NP: 8, Protocol: Pcl, Interval: time.Second,
		Failures: []Failure{
			KillRank(time.Second, 3),
			KillNode(2*time.Second, 1),
			KillServer(3*time.Second, 0),
			KillBuffer(4*time.Second, 2),
			KillPFS(5*time.Second, 1),
		},
	})
	if err != nil {
		t.Fatalf("constructors: %v", err)
	}
	if len(cfg.Failures) != 5 {
		t.Fatalf("got %d failure events, want 5", len(cfg.Failures))
	}
	if ev := cfg.Failures[0]; ev.Kind != failure.KindRank || ev.Rank != 3 || ev.At != time.Second {
		t.Errorf("KillRank event = %+v", ev)
	}
	if ev := cfg.Failures[1]; ev.Kind != failure.KindNode || ev.Node != 1 {
		t.Errorf("KillNode event = %+v", ev)
	}
	if ev := cfg.Failures[2]; ev.Kind != failure.KindServer || ev.Server != 0 {
		t.Errorf("KillServer event = %+v", ev)
	}
	if ev := cfg.Failures[3]; ev.Kind != failure.KindBuffer || ev.Node != 2 {
		t.Errorf("KillBuffer event = %+v", ev)
	}
	if ev := cfg.Failures[4]; ev.Kind != failure.KindPFS || ev.Server != 1 {
		t.Errorf("KillPFS event = %+v", ev)
	}
}

// TestRunRejectsMissingVictim: a scripted kill of a rank, server or PFS
// target the job does not have is refused before anything runs, with a
// *ConfigError naming the offending field.
func TestRunRejectsMissingVictim(t *testing.T) {
	hier := &StorageSpec{Levels: []LevelSpec{
		{Kind: LevelServers, Servers: 2}, {Kind: LevelPFS, Targets: 2, Stripes: 2}}}
	cases := []struct {
		name    string
		storage *StorageSpec
		kills   []Failure
		field   string
	}{
		{"rank", nil, []Failure{KillRank(time.Second, 8)}, "Failures[0].Rank"},
		{"server", nil, []Failure{KillRank(time.Second, 7), KillServer(time.Second, 2)}, "Failures[1].Server"},
		{"pfs target", hier, []Failure{KillPFS(time.Second, 2)}, "Failures[0].Server"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := Options{Workload: WorkloadJacobi, NP: 8, Protocol: Pcl, Interval: time.Second,
				Storage: tc.storage, Failures: tc.kills}
			if tc.storage == nil {
				o.Servers = 2
			}
			_, err := Run(o)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Run returned %v (%T), want a *ConfigError", err, err)
			}
			if ce.Field != tc.field {
				t.Errorf("Field = %q, want %q (reason %q)", ce.Field, tc.field, ce.Reason)
			}
		})
	}
}

func TestBuildConfigVclProcessLimit(t *testing.T) {
	cfg, err := buildConfig(Options{Workload: WorkloadCG, NP: 8, Protocol: Vcl, Interval: time.Second, VclProcessLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.VclProcessLimit != -1 {
		t.Errorf("VclProcessLimit = %d, want -1", cfg.VclProcessLimit)
	}
}
