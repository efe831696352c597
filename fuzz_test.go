package ftckpt

import (
	"errors"
	"testing"
	"time"

	"ftckpt/internal/failure"
	"ftckpt/internal/ftpm"
)

// fuzzOptions decodes bytes into a run description.  The layout is fixed
// (a missing byte reads as 0) so a corpus entry can be written by hand:
//
//	0 NP (signed, at most 64)   1 ProcsPerNode   2 Workload   3 Class
//	4 Protocol   5 Interval (ms)   6 Servers   7 Platform   8 Recovery
//	9 Spares   10 VclProcessLimit
//	11 bit 0 replication, 1 Heartbeat, 2 Storage, 3 Incremental, 4 Compress
//	12-15 Replicas, WriteQuorum, StoreRetries, RetryBackoff (ms): with bit 0
//	they fill every servers level of the Storage of bit 2, or, without bit
//	2, make Storage the one servers level with byte 6's count of servers
//	(and Servers 0)
//	16-17 heartbeat Period, Timeout (ms)
//	18-20 MTTF, ServerMTTF, NodeMTTF (s)
//	21-23 FullEvery, DirtyFraction (/64), CompressRatio (/64)
//	24 storage levels (mod 5)   25 failures (mod 5)
//	then 8 bytes per level: Kind, Servers, Replicas, WriteQuorum, Targets,
//	Stripes, Bandwidth (MB/s), Capacity/Retention
//	then 3 bytes per failure: Kind (mod 7: rank, node, server, buffer,
//	pfs, two unknown), At (ms), victim index
//
// Counts and indices are signed bytes, so every knob sees negative, zero
// and in-range values; every enum is drawn from its constants plus
// garbage.
func fuzzOptions(data []byte) Options {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(int8(b))
	}
	ms := func() time.Duration { return time.Duration(next()) * time.Millisecond }
	pick := func(s ...string) string { return s[uint8(next())%uint8(len(s))] }

	o := Options{NP: min(next(), 64), ProcsPerNode: next()}
	o.Workload = Workload(pick("", "bt", "cg", "mg", "lu", "cg-real", "ep", "jacobi", "ft"))
	o.Class = Class(pick("", "A", "B", "C", "Z"))
	o.Protocol = Protocol(pick("", "none", "pcl", "vcl", "mlog", "tcp"))
	o.Interval = ms()
	o.Servers = next()
	o.Platform = Platform(pick("", "ethernet", "myrinet-gm", "myrinet-tcp", "grid", "atm"))
	o.Recovery = RecoveryMode(pick("", "restart", "ulfm", "pray"))
	o.Spares = next()
	o.VclProcessLimit = next()
	flags := next()
	repl := LevelSpec{Kind: LevelServers, Replicas: next(), WriteQuorum: next(), StoreRetries: next(), RetryBackoff: ms()}
	hb := HeartbeatSpec{Period: ms(), Timeout: ms()}
	if flags&2 != 0 {
		o.Heartbeat = &hb
	}
	o.MTTF = time.Duration(next()) * time.Second
	o.ServerMTTF = time.Duration(next()) * time.Second
	o.NodeMTTF = time.Duration(next()) * time.Second
	st := StorageSpec{
		Incremental: flags&8 != 0, FullEvery: next(), DirtyFraction: float64(next()) / 64,
		Compress: flags&16 != 0, CompressRatio: float64(next()) / 64,
	}
	levels, failures := uint8(next())%5, uint8(next())%5
	for ; levels > 0; levels-- {
		l := LevelSpec{Kind: LevelKind(pick("buffer", "servers", "pfs", "", "tape"))}
		l.Servers, l.Replicas, l.WriteQuorum = next(), next(), next()
		l.Targets, l.Stripes = next(), next()
		l.Bandwidth = float64(next()) * 1e6
		l.Retention = next()
		l.Capacity = int64(l.Retention) << 20
		st.Levels = append(st.Levels, l)
	}
	if flags&4 != 0 {
		o.Storage = &st
		for i := range st.Levels {
			if l := &st.Levels[i]; flags&1 != 0 && l.Kind == LevelServers {
				l.Replicas, l.WriteQuorum, l.StoreRetries, l.RetryBackoff = repl.Replicas, repl.WriteQuorum, repl.StoreRetries, repl.RetryBackoff
			}
		}
	} else if flags&1 != 0 {
		repl.Servers, o.Servers = o.Servers, 0
		o.Storage = &StorageSpec{Levels: []LevelSpec{repl}}
	}
	for ; failures > 0; failures-- {
		kind, at, victim := failure.Kind(uint8(next())%7), ms(), next()
		o.Failures = append(o.Failures, Failure{At: at, Kind: kind, Rank: victim, Node: victim, Server: victim})
	}
	return o
}

// FuzzOptions: no description of a run, however malformed, gets through
// buildConfig and ftpm.NewJob (Config.Validate, then the platform, the
// servers and the storage hierarchy built from what it accepted) with a
// panic or an untyped error — it is accepted, or refused with a
// *ConfigError naming a field.  Nothing is simulated, so the target is
// cheap; testdata/fuzz/FuzzOptions holds the descriptions that used to
// slip through.
func FuzzOptions(f *testing.F) {
	f.Add([]byte{16})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := buildConfig(fuzzOptions(data))
		if err == nil {
			_, err = ftpm.NewJob(cfg)
		}
		var ce *ConfigError
		if err != nil && (!errors.As(err, &ce) || ce.Field == "") {
			t.Fatalf("rejected with %v (%T), want a *ConfigError naming a field", err, err)
		}
	})
}
