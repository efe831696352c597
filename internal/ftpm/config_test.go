package ftpm

// Validation tests for the typed storage hierarchy: every rejection must
// surface as a *ConfigError naming the offending (possibly nested) field,
// and validating a valid spec, or the Servers shorthand for one, must be
// idempotent.

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"ftckpt/internal/ckpt"
	"ftckpt/internal/failure"
)

// storageCfg returns a valid three-level config the rejection cases
// mutate: 4 ranks, buffer + 2 replicated servers + 2 PFS targets.
func storageCfg() Config {
	cfg := baseCfg(4)
	cfg.Protocol = ProtoPcl
	cfg.Interval = 10 * time.Millisecond
	cfg.Servers = 0
	cfg.Storage = &ckpt.Spec{Levels: []ckpt.LevelSpec{
		{Kind: ckpt.LevelBuffer},
		{Kind: ckpt.LevelServers, Servers: 2},
		{Kind: ckpt.LevelPFS, Targets: 2, Stripes: 2},
	}}
	cfg.Topology = topoN(12) // 4 compute + 2 servers + 1 service + 2 PFS
	return cfg
}

func TestValidateStorageRejections(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"empty levels", func(c *Config) { c.Storage.Levels = nil }, "Storage.Levels"},
		{"flat servers", func(c *Config) { c.Servers = 3 }, "Servers"},
		{"server nodes", func(c *Config) { c.ServerNodes = []int{1, 2} }, "ServerNodes"},
		{"buffer not first", func(c *Config) {
			c.Storage.Levels[0], c.Storage.Levels[1] = c.Storage.Levels[1], c.Storage.Levels[0]
		}, "Storage.Levels[1].Kind"},
		{"buffer bandwidth", func(c *Config) { c.Storage.Levels[0].Bandwidth = -1 }, "Storage.Levels[0].Bandwidth"},
		{"buffer latency", func(c *Config) { c.Storage.Levels[0].Latency = -1 }, "Storage.Levels[0].Latency"},
		{"buffer capacity", func(c *Config) { c.Storage.Levels[0].Capacity = -1 }, "Storage.Levels[0].Capacity"},
		{"buffer retention", func(c *Config) { c.Storage.Levels[0].Retention = -1 }, "Storage.Levels[0].Retention"},
		{"duplicate servers", func(c *Config) {
			c.Storage.Levels = []ckpt.LevelSpec{
				{Kind: ckpt.LevelBuffer},
				{Kind: ckpt.LevelServers, Servers: 2},
				{Kind: ckpt.LevelServers, Servers: 1},
			}
		}, "Storage.Levels[2].Kind"},
		{"servers zero", func(c *Config) { c.Storage.Levels[1].Servers = 0 }, "Storage.Levels[1].Servers"},
		{"servers replicas", func(c *Config) { c.Storage.Levels[1].Replicas = -1 }, "Storage.Levels[1].Replicas"},
		{"servers quorum", func(c *Config) { c.Storage.Levels[1].WriteQuorum = -1 }, "Storage.Levels[1].WriteQuorum"},
		{"servers retries", func(c *Config) { c.Storage.Levels[1].StoreRetries = -1 }, "Storage.Levels[1].StoreRetries"},
		{"servers backoff", func(c *Config) { c.Storage.Levels[1].RetryBackoff = -1 }, "Storage.Levels[1].RetryBackoff"},
		{"pfs not last", func(c *Config) {
			c.Storage.Levels = []ckpt.LevelSpec{
				{Kind: ckpt.LevelBuffer},
				{Kind: ckpt.LevelPFS, Targets: 2, Stripes: 2},
				{Kind: ckpt.LevelServers, Servers: 2},
			}
		}, "Storage.Levels[1].Kind"},
		{"pfs targets", func(c *Config) { c.Storage.Levels[2].Targets = -1 }, "Storage.Levels[2].Targets"},
		{"pfs stripes", func(c *Config) { c.Storage.Levels[2].Stripes = -1 }, "Storage.Levels[2].Stripes"},
		{"pfs bandwidth", func(c *Config) { c.Storage.Levels[2].Bandwidth = -1 }, "Storage.Levels[2].Bandwidth"},
		{"unknown kind", func(c *Config) {
			c.Storage.Levels = []ckpt.LevelSpec{
				{Kind: ckpt.LevelBuffer},
				{Kind: ckpt.LevelServers, Servers: 2},
				{Kind: "tape"},
			}
		}, "Storage.Levels[2].Kind"},
		{"missing servers level", func(c *Config) {
			c.Storage.Levels = []ckpt.LevelSpec{{Kind: ckpt.LevelBuffer}}
		}, "Storage.Levels"},
		{"full every", func(c *Config) { c.Storage.FullEvery = -1 }, "Storage.FullEvery"},
		{"dirty fraction", func(c *Config) { c.Storage.DirtyFraction = 1.5 }, "Storage.DirtyFraction"},
		{"compress ratio", func(c *Config) { c.Storage.CompressRatio = -0.1 }, "Storage.CompressRatio"},
		// Scripted kills must name a victim that exists (4 ranks, 2
		// servers, 2 PFS targets); the index is the offending event's.
		{"failure rank", func(c *Config) { c.Failures = failure.KillAt(time.Millisecond, 4) }, "Failures[0].Rank"},
		{"failure negative rank", func(c *Config) { c.Failures = failure.KillAt(time.Millisecond, -1) }, "Failures[0].Rank"},
		{"failure server", func(c *Config) {
			c.Failures = append(failure.KillAt(time.Millisecond, 3), failure.KillServerAt(time.Millisecond, 2)...)
		}, "Failures[1].Server"},
		{"failure pfs target", func(c *Config) {
			c.Failures = failure.Plan{{At: time.Millisecond, Kind: failure.KindPFS, Server: 2}}
		}, "Failures[0].Server"},
		// ... on a platform of 12 nodes, 4 of them compute nodes with a
		// staging buffer, at a time the run reaches.
		{"failure node", func(c *Config) { c.Failures = failure.KillNodeAt(time.Millisecond, 12) }, "Failures[0].Node"},
		{"failure negative node", func(c *Config) { c.Failures = failure.KillNodeAt(time.Millisecond, -1) }, "Failures[0].Node"},
		{"failure buffer node", func(c *Config) {
			c.Failures = failure.Plan{{At: time.Millisecond, Kind: failure.KindBuffer, Node: 4}}
		}, "Failures[0].Node"},
		{"failure buffer without the level", func(c *Config) {
			c.Storage.Levels = c.Storage.Levels[1:]
			c.Failures = failure.Plan{{At: time.Millisecond, Kind: failure.KindBuffer}}
		}, "Failures[0].Kind"},
		{"failure pfs without the level", func(c *Config) {
			c.Storage.Levels = c.Storage.Levels[:2]
			c.Failures = failure.Plan{{At: time.Millisecond, Kind: failure.KindPFS}}
		}, "Failures[0].Kind"},
		{"failure pfs without storage", func(c *Config) {
			c.Storage, c.Servers = nil, 2
			c.Failures = failure.Plan{{At: time.Millisecond, Kind: failure.KindPFS}}
		}, "Failures[0].Kind"},
		{"failure kind", func(c *Config) { c.Failures = failure.Plan{{At: time.Millisecond, Kind: 9}} }, "Failures[0].Kind"},
		{"failure time", func(c *Config) { c.Failures = failure.KillAt(-time.Millisecond, 0) }, "Failures[0].At"},
		{"interval", func(c *Config) { c.Interval = -time.Millisecond }, "Interval"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := storageCfg()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("expected *ConfigError on field %q, got nil", tc.field)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("rejection is %T, want *ConfigError: %v", err, err)
			}
			if ce.Field != tc.field {
				t.Errorf("Field = %q, want %q (reason %q)", ce.Field, tc.field, ce.Reason)
			}
		})
	}
}

// TestValidateStorageFold pins what Validate writes: a valid spec gets its
// replication and model defaults in place, the Servers shorthand becomes
// the one-level spec it stands for, and a second Validate is a no-op —
// harnesses validate before handing the config to a job.
func TestValidateStorageFold(t *testing.T) {
	short := baseCfg(4)
	short.Protocol = ProtoPcl
	if err := short.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []ckpt.LevelSpec{{Kind: ckpt.LevelServers, Servers: 2, Replicas: 1, WriteQuorum: 1}}
	if short.Servers != 0 || short.Storage == nil || !reflect.DeepEqual(short.Storage.Levels, want) {
		t.Errorf("Servers 2 validated to Servers=%d Storage=%+v, want the levels %+v", short.Servers, short.Storage, want)
	}
	if err := short.Validate(); err != nil {
		t.Fatalf("re-validating the shorthand: %v", err)
	}

	cfg := storageCfg()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if l := cfg.Storage.Levels[1]; l.Replicas != 1 || l.WriteQuorum != 1 {
		t.Errorf("replication defaults: Replicas=%d WriteQuorum=%d, want 1/1", l.Replicas, l.WriteQuorum)
	}
	sp := cfg.Storage
	if sp.FullEvery != 4 || sp.DirtyFraction != 0.35 || sp.CompressRatio != 0.6 {
		t.Errorf("planner defaults not normalized: %+v", sp)
	}
	if l := sp.Levels[0]; l.Bandwidth <= 0 || l.Latency <= 0 {
		t.Errorf("buffer defaults not normalized: %+v", l)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("re-validation not idempotent: %v", err)
	}
	// Kills of the staging levels are judged against the spec as written:
	// Mlog runs without those levels, and a schedule drawn for the spec
	// (chaos) must still be accepted.
	cfg.Protocol = ProtoMlog
	cfg.Failures = failure.Plan{
		{At: time.Millisecond, Kind: failure.KindBuffer, Node: 3},
		{At: time.Millisecond, Kind: failure.KindPFS, Server: 1},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("staging-level kills under mlog: %v", err)
	}
}

// TestValidateConfigErrorType checks that the pre-existing non-storage
// rejections share the single typed shape.
func TestValidateConfigErrorType(t *testing.T) {
	bad := []Config{
		{},
		{NP: 4, NewProgram: newRing(1, 0, 0), Protocol: "weird", Topology: topoN(10)},
		{NP: 4, NewProgram: newRing(1, 0, 0), Protocol: ProtoPcl, Topology: topoN(10)},
		{NP: 40, NewProgram: newRing(1, 0, 0), Topology: topoN(4)},
		{NP: 4, NewProgram: newRing(1, 0, 0), Topology: topoN(10),
			Storage: &ckpt.Spec{Levels: []ckpt.LevelSpec{{Kind: ckpt.LevelServers, Servers: 1, Replicas: -1}}}},
		{NP: 4, NewProgram: newRing(1, 0, 0), HeartbeatTimeout: time.Second, Topology: topoN(10)},
	}
	for i, cfg := range bad {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("config %d validated", i)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("config %d: rejection is %T, want *ConfigError: %v", i, err, err)
		} else if ce.Field == "" {
			t.Errorf("config %d: empty Field in %v", i, err)
		}
	}
}
