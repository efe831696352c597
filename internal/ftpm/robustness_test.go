package ftpm

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ftckpt/internal/ckpt"
	"ftckpt/internal/failure"
	"ftckpt/internal/obs"
)

// TestServerFailoverRecovery is the headline replication scenario: a
// checkpoint server dies mid-wave, the write quorum of 1 keeps waves
// committing on the surviving replica, and when a rank later dies its
// recovery fetch fails over to that replica.  The recovered result must
// match the failure-free reference for every protocol family.
func TestServerFailoverRecovery(t *testing.T) {
	want := reference(t, 8)
	for _, proto := range []Proto{ProtoPcl, ProtoVcl, ProtoMlog} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			cfg := baseCfg(8)
			cfg.Protocol = proto
			cfg.Interval = 15 * time.Millisecond
			replicated(&cfg, ckpt.LevelSpec{Replicas: 2, WriteQuorum: 1})
			cfg.Failures = failure.Plan{
				// Server 0 dies while wave transfers are typically in
				// flight; server 0 is the primary for even ranks.
				failure.Event{At: 35 * time.Millisecond, Kind: failure.KindServer, Server: 0},
				// Rank 2's primary is the dead server: its recovery
				// fetch must fail over to the surviving replica.
				{At: 80 * time.Millisecond, Rank: 2},
			}
			col := obs.NewCollector()
			cfg.Sink = col
			res, progs := runOK(t, cfg)
			if res.ServerFailures != 1 {
				t.Fatalf("server failures = %d, want 1", res.ServerFailures)
			}
			if res.Restarts == 0 {
				t.Fatal("rank kill caused no recovery")
			}
			if res.Failovers == 0 {
				t.Fatal("no fetch fell over to the surviving replica")
			}
			if n := col.Count(obs.EvReplicaFailover); n != res.Failovers {
				t.Fatalf("%d replica-failover events, result %d", n, res.Failovers)
			}
			for r, s := range sums(progs) {
				if s != want {
					t.Fatalf("rank %d checksum %v after failover recovery, want %v", r, s, want)
				}
			}
		})
	}
}

// TestServerFailoverDeterministic reruns the failover scenario and
// requires bit-identical results and metric exports — replication,
// retries and failovers must not introduce nondeterminism.
func TestServerFailoverDeterministic(t *testing.T) {
	run := func() (Result, string) {
		cfg := baseCfg(8)
		cfg.Protocol = ProtoPcl
		cfg.Interval = 15 * time.Millisecond
		replicated(&cfg, ckpt.LevelSpec{Replicas: 2, WriteQuorum: 1, StoreRetries: 1, RetryBackoff: time.Millisecond})
		cfg.Failures = failure.Plan{
			failure.Event{At: 35 * time.Millisecond, Kind: failure.KindServer, Server: 0},
			{At: 80 * time.Millisecond, Rank: 2},
		}
		res, _ := runOK(t, cfg)
		var sb strings.Builder
		if err := res.Metrics.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return res, sb.String()
	}
	a, am := run()
	b, bm := run()
	a.Metrics, b.Metrics = nil, nil
	if a != b {
		t.Fatalf("failover run nondeterministic:\n%+v\n%+v", a, b)
	}
	if am != bm {
		t.Fatalf("failover metrics nondeterministic:\n%s\n%s", am, bm)
	}
}

// TestDegradedStopWithoutReplication kills the only holder of a
// committed image: the restart's fetch exhausts every replica and the
// job must stop with a structured DegradedError — not a panic.
func TestDegradedStopWithoutReplication(t *testing.T) {
	cfg := baseCfg(8)
	cfg.Protocol = ProtoPcl
	cfg.Interval = 15 * time.Millisecond
	cfg.Failures = failure.Plan{
		// Server 0 dies between waves, after at least one commit; rank
		// 2's only image copy dies with it.
		failure.Event{At: 40 * time.Millisecond, Kind: failure.KindServer, Server: 0},
		{At: 80 * time.Millisecond, Rank: 2},
	}
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err == nil {
		t.Fatal("job completed despite losing the only copy of a committed image")
	}
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("want DegradedError, got %T: %v", err, err)
	}
	if deg.Wave < 1 {
		t.Fatalf("degraded at wave %d, want a committed wave", deg.Wave)
	}
	if deg.Err == nil {
		t.Fatal("DegradedError carries no cause")
	}
	if n := res.Metrics.Tally[obs.EvDegraded]; n != 1 {
		t.Fatalf("degraded stops counter = %d", n)
	}
}

// TestHeartbeatDetection replaces instant failure detection with the
// ping/timeout detector: a rank dies silently, the dispatcher declares
// it dead only after Heartbeat.Timeout of silence, and recovery still
// converges to the failure-free result.  Detection latency lands in the
// metrics histogram.
func TestHeartbeatDetection(t *testing.T) {
	want := reference(t, 6)
	cfg := baseCfg(6)
	cfg.Protocol = ProtoPcl
	cfg.Interval = 15 * time.Millisecond
	cfg.Heartbeat.Period = 2 * time.Millisecond
	cfg.Heartbeat.Timeout = 8 * time.Millisecond
	cfg.Failures = failure.Plan{{At: 60 * time.Millisecond, Rank: 3}}
	res, progs := runOK(t, cfg)
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	if res.Metrics.Tally[obs.EvHeartbeatTimeout] < 1 {
		t.Fatal("no heartbeat timeout recorded")
	}
	h := res.Metrics.DetectLatency
	if h.Count < 1 {
		t.Fatal("no detection latency observed")
	}
	// Silence is declared between timeout and timeout+period (plus the
	// sweep granularity); far outside that window the detector is wrong.
	if h.Min < cfg.Heartbeat.Timeout || h.Max > 3*cfg.Heartbeat.Timeout {
		t.Fatalf("detection latency [%v, %v] outside the plausible window for timeout %v",
			h.Min, h.Max, cfg.Heartbeat.Timeout)
	}
	for r, s := range sums(progs) {
		if s != want {
			t.Fatalf("rank %d checksum %v after heartbeat-detected recovery, want %v", r, s, want)
		}
	}
}

// TestHeartbeatDetectsServerDeath: a killed checkpoint server stops
// answering pings and is declared dead by the detector; the job itself
// keeps running on the surviving replica.
func TestHeartbeatDetectsServerDeath(t *testing.T) {
	cfg := baseCfg(8)
	cfg.Protocol = ProtoPcl
	cfg.Interval = 15 * time.Millisecond
	replicated(&cfg, ckpt.LevelSpec{Replicas: 2, WriteQuorum: 1})
	cfg.Heartbeat.Period = 2 * time.Millisecond
	cfg.Heartbeat.Timeout = 8 * time.Millisecond
	cfg.Failures = failure.Plan{{At: 35 * time.Millisecond, Kind: failure.KindServer, Server: 1}}
	res, _ := runOK(t, cfg)
	if res.ServerFailures != 1 {
		t.Fatalf("server failures = %d", res.ServerFailures)
	}
	if res.Metrics.Tally[obs.EvHeartbeatTimeout] < 1 {
		t.Fatal("server death not detected by heartbeat")
	}
	if res.WavesCommitted < 2 {
		t.Fatalf("only %d waves committed after server loss", res.WavesCommitted)
	}
}

// TestRobustnessConfigValidation covers the new rejection rules with
// configurations that are valid except for the field under test.
func TestRobustnessConfigValidation(t *testing.T) {
	good := func() Config {
		cfg := baseCfg(4)
		cfg.Protocol = ProtoPcl
		cfg.Interval = 20 * time.Millisecond
		return cfg
	}
	base := good()
	if err := base.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"replicas exceed servers", func(c *Config) { replicated(c, ckpt.LevelSpec{Replicas: 3}) }, "Storage.Levels[0].Replicas"},
		{"quorum exceeds replicas", func(c *Config) { replicated(c, ckpt.LevelSpec{Replicas: 2, WriteQuorum: 3}) }, "Storage.Levels[0].WriteQuorum"},
		{"negative store retries", func(c *Config) { replicated(c, ckpt.LevelSpec{StoreRetries: -1}) }, "Storage.Levels[0].StoreRetries"},
		{"period not below timeout", func(c *Config) {
			c.Heartbeat.Period = 10 * time.Millisecond
			c.Heartbeat.Timeout = 10 * time.Millisecond
		}, "Heartbeat.Period"},
		{"timeout without period", func(c *Config) { c.Heartbeat.Timeout = 10 * time.Millisecond }, "Heartbeat.Timeout"},
		{"negative server mttf", func(c *Config) { c.ServerMTTF = -time.Second }, "ServerMTTF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("config validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
	// Defaults: WriteQuorum 0 means all replicas, timeout 0 means 4×period.
	cfg := good()
	replicated(&cfg, ckpt.LevelSpec{Replicas: 2})
	cfg.Heartbeat.Period = 3 * time.Millisecond
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if q := cfg.Storage.Levels[0].WriteQuorum; q != 2 {
		t.Fatalf("WriteQuorum defaulted to %d, want 2", q)
	}
	if cfg.Heartbeat.Timeout != 12*time.Millisecond {
		t.Fatalf("Heartbeat.Timeout defaulted to %v, want 12ms", cfg.Heartbeat.Timeout)
	}
}
