// Package ftpm is the fault tolerant process manager: the runtime that
// launches an MPI job on the simulated platform, wires each process to its
// checkpointing protocol and checkpoint server, monitors for failures,
// and restarts every process from the last committed wave when one occurs.
//
// It replaces MPICH2's MPD with the paper's FTPM (§4.2): an mpiexec-like
// dispatcher plus per-process managers, a machinefile mapping compute
// nodes to checkpoint servers, and a database recording each process's
// business card, the last successful wave and which server holds which
// local checkpoint.
package ftpm

import (
	"fmt"

	"ftckpt/internal/ckpt"
	"ftckpt/internal/failure"
	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
	"ftckpt/internal/span"
)

// Proto selects the checkpointing protocol of a run.
type Proto string

// Protocols.
const (
	// ProtoNone disables checkpointing (baseline runs).
	ProtoNone Proto = "none"
	// ProtoPcl is the blocking protocol (MPICH2 implementation).
	ProtoPcl Proto = "pcl"
	// ProtoVcl is the non-blocking protocol (MPICH-V implementation).
	ProtoVcl Proto = "vcl"
	// ProtoMlog is uncoordinated checkpointing with pessimistic
	// receiver-based message logging — the §2 alternative family: no
	// marker waves, single-process recovery, higher failure-free cost.
	ProtoMlog Proto = "mlog"
)

// DefaultVclProcessLimit reproduces the paper's Vcl dispatcher limit: it
// multiplexes with select(), whose fd-set caps the job at roughly 300
// processes (§5.4).
const DefaultVclProcessLimit = 300

// Recovery selects how the runtime reacts to a process failure.
type Recovery string

// Recovery modes.
const (
	// RecoveryRestart is the paper's rollback recovery: the whole job is
	// killed and relaunched from the last committed wave (the default).
	RecoveryRestart Recovery = "restart"
	// RecoveryULFM repairs the job in place, ULFM-style: the communicator
	// is revoked, survivors shrink and agree on the failure set, a
	// replacement process is spliced in (onto a spare node when the
	// machine died), and the application restores from in-memory partner
	// checkpoints — no full restart.  Falls back to RecoveryRestart when
	// no application snapshot exists yet, spares are exhausted on a node
	// loss, ranks already finished, or a second failure interrupts a
	// repair.  Message-logging (mlog) keeps its native single-process
	// recovery, which is already in-job.
	RecoveryULFM Recovery = "ulfm"
)

// Config describes one job.
type Config struct {
	// NP is the number of MPI processes.
	NP int
	// ProcsPerNode co-locates processes on nodes (the paper's
	// bi-processor deployments: 2 processes share one NIC).
	ProcsPerNode int
	// Protocol and Interval select checkpointing; Interval is the time
	// between checkpoint waves (re-armed when a wave's images are all
	// stored, as in the paper).  Interval 0 with a protocol set means
	// protocol infrastructure without periodic waves.
	Protocol Proto
	Interval sim.Time
	// Servers is shorthand for a Storage spec with only the servers level
	// and that many single-copy servers; Validate turns it into that spec
	// and zeroes it, so it conflicts with a Storage set alongside it.
	// Processes are assigned round-robin (rank mod servers) unless
	// ServerOf is set.
	Servers  int
	ServerOf func(rank int) int
	// Storage describes the checkpoint storage: the server tier (its
	// servers level carries the server count, replicas, write quorum and
	// retries), optionally a node-local staging buffer above it and a
	// striped PFS below it, plus incremental/compressed images.  After
	// Validate it is nil exactly when the job has no checkpoint servers.
	Storage *ckpt.Spec
	// HeartbeatPeriod > 0 replaces the paper's instant failure detection
	// (the dying task's TCP connection breaks immediately) with a
	// heartbeat detector: the dispatcher pings every rank and checkpoint
	// server on the simulated network each period and declares a
	// component dead after HeartbeatTimeout of silence — detection
	// latency and false suspicions become measurable model parameters.
	HeartbeatPeriod  sim.Time
	HeartbeatTimeout sim.Time
	// Placement overrides the default rank→node mapping
	// (rank/ProcsPerNode); ServerNodes the default server placement
	// (after the compute nodes); ServiceNode the scheduler/dispatcher
	// node.  Platform presets use these to keep each process's checkpoint
	// server inside its own cluster, as the paper's grid machinefile does.
	Placement   func(rank int) int
	ServerNodes []int
	ServiceNode int
	// Topology is the platform; Profile the communication service profile.
	Topology simnet.Topology
	Profile  mpi.Profile
	// NewProgram builds rank's application (fresh start).
	NewProgram func(rank, size int) mpi.Program
	// Failures is a scripted fault-injection plan (rank, node and
	// checkpoint-server kills); MTTF adds memoryless rank failures on top
	// (0 disables).  ServerMTTF and NodeMTTF do the same for the other
	// component classes, each with its own independent failure process.
	Failures   failure.Plan
	MTTF       sim.Time
	ServerMTTF sim.Time
	NodeMTTF   sim.Time
	// RestartDelay models the runtime's respawn cost before image
	// fetches begin.
	RestartDelay sim.Time
	// SpareNodes reserves that many extra nodes after the service node.
	// When a machine dies (a failure.KindNode kill) the dispatcher remaps
	// its ranks to a spare while any remain, then overbooks surviving
	// compute nodes (the paper: "this may lead to overloading of some
	// processors ... one has to overbook processors to have available
	// spare nodes").
	SpareNodes int
	// Recovery selects rollback-restart (default) or ULFM-style in-job
	// repair; FTEvery is the application snapshot cadence in iterations
	// for programs that support in-memory partner checkpoints (0 leaves
	// application-level FT off, which makes every ULFM repair fall back
	// to a restart).
	Recovery Recovery
	FTEvery  int
	// Deadline aborts the simulation (protocol-deadlock guard in tests);
	// 0 means none.
	Deadline sim.Time
	// VclProcessLimit overrides the Vcl dispatcher's select() limit;
	// -1 removes it (what-if studies), 0 means the default.
	VclProcessLimit int
	// Seed feeds the deterministic kernel.
	Seed int64
	// Trace, when set, receives runtime progress lines (the legacy
	// unstructured stream, rendered through an obs.TextSink).
	Trace func(format string, args ...any)
	// Sink, when set, receives every structured observability event of
	// the run (markers, block/unblock spans, logged messages, image
	// transfers, commits, failures, restarts).
	Sink obs.Sink
	// Metrics, when set, receives the run's metrics — shared across runs
	// to aggregate (cmd/figures).  A job always counts into a registry of
	// its own and merges it into this one when Run returns (on the error
	// paths too), so Result's totals are this run's alone.
	Metrics *obs.Metrics
	// Attrib attaches the causal span tracer (internal/span) to the run
	// and computes the per-phase overhead attribution into
	// Result.Attribution when the job completes.
	Attrib bool
	// SnapshotPeriod > 0 emits a periodic metrics snapshot (counter-sample
	// events) every period, rendered as counter tracks by the Chrome trace
	// exporters.
	SnapshotPeriod sim.Time
}

// WaveBreakdown is the mean, over the globally committed waves, of the
// three phases the paper's cost analysis separates: the straggle between
// the first and last local snapshot, the tail from the last snapshot to
// the last durable image, and the whole first-snapshot-to-commit cycle.
// All zero under uncoordinated checkpointing (Mlog), which has no waves.
type WaveBreakdown struct {
	MeanSpread, MeanTransfer, MeanCycle sim.Time
}

// Result summarizes a completed run.  Every count is read off the run's
// metrics registry (obs.MetricsSink folds it from the event stream), so
// it equals what a Sink attached to the run would count.
type Result struct {
	// Completion is the job's virtual completion time.
	Completion sim.Time
	// WavesCommitted counts committed checkpoint waves; LastWave is the
	// final recovery line.
	WavesCommitted int
	LastWave       int
	// LocalCkpts sums local checkpoints across processes and restarts.
	LocalCkpts int
	// Restarts counts rollback/recovery episodes.
	Restarts int
	// Repairs counts in-job (ULFM) repairs: failures survived without a
	// rollback-restart.  LostWork is the virtual compute time those
	// repairs discarded (progress past the restored application
	// snapshot, summed over ranks) — the numerator of the recovered-work
	// metric.
	Repairs  int
	LostWork sim.Time
	// Messages and PayloadBytes count application traffic; CkptBytes the
	// data received by checkpoint servers; LoggedMsgs/LoggedBytes the
	// messages logged — Vcl's channel state, Mlog's pessimistic log (a
	// message replayed during recovery is not logged again).
	Messages     int64
	PayloadBytes int64
	CkptBytes    int64
	LoggedMsgs   int
	LoggedBytes  int64
	// ServerFailures counts checkpoint servers lost; Failovers counts
	// recovery fetches that fell over to a surviving replica.
	ServerFailures int
	Failovers      int
	// WaveBreakdown is the mean of each wave phase (zero under Mlog).
	WaveBreakdown WaveBreakdown
	// Metrics is Config.Metrics when that was set (this run merged into
	// it), else the run's own registry: counters (markers, logged bytes
	// per channel, image bytes per server), and virtual-time histograms
	// (blocked-send spans, store transfers, wave phases).
	Metrics *obs.Metrics
	// Attribution is the conservation-checked per-phase overhead
	// breakdown, computed when Config.Attrib is set (nil otherwise, and on
	// degraded runs).
	Attribution *span.Attribution
}

func (r Result) String() string {
	return fmt.Sprintf("completion=%v waves=%d restarts=%d ckptMB=%.1f",
		r.Completion, r.WavesCommitted, r.Restarts, float64(r.CkptBytes)/float64(1<<20))
}

// ConfigError is the single rejection shape Validate reports: the
// Config field at fault plus the reason, so callers (and flag parsers
// layered on top) can name the offending knob mechanically.
type ConfigError struct {
	// Field is the Config field (dotted for storage levels, e.g.
	// "Storage.Levels[0].Kind") that made the configuration invalid.
	Field string
	// Reason says what is wrong with it.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("ftpm: %s: %s", e.Field, e.Reason)
}

func cfgErr(field, format string, args ...any) error {
	return &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Validate checks a configuration, applying defaults in place.  Every
// rejection is a *ConfigError naming the offending field.
func (c *Config) Validate() error {
	if c.NP <= 0 {
		return cfgErr("NP", "must be positive, got %d", c.NP)
	}
	if c.ProcsPerNode <= 0 {
		c.ProcsPerNode = 1
	}
	if c.Protocol == "" {
		c.Protocol = ProtoNone
	}
	switch c.Protocol {
	case ProtoNone, ProtoPcl, ProtoVcl, ProtoMlog:
	default:
		return cfgErr("Protocol", "unknown protocol %q (want %q, %q, %q or %q)",
			c.Protocol, ProtoNone, ProtoPcl, ProtoVcl, ProtoMlog)
	}
	if c.Interval < 0 {
		return cfgErr("Interval", "must be non-negative, got %v", c.Interval)
	}
	if err := c.validateStorage(); err != nil {
		return err
	}
	if c.NewProgram == nil {
		return cfgErr("NewProgram", "is required")
	}
	if c.RestartDelay < 0 {
		return cfgErr("RestartDelay", "must be non-negative, got %v", c.RestartDelay)
	}
	if c.MTTF < 0 {
		return cfgErr("MTTF", "must be non-negative, got %v", c.MTTF)
	}
	if c.ServerMTTF < 0 {
		return cfgErr("ServerMTTF", "must be non-negative, got %v", c.ServerMTTF)
	}
	if c.NodeMTTF < 0 {
		return cfgErr("NodeMTTF", "must be non-negative, got %v", c.NodeMTTF)
	}
	if c.HeartbeatPeriod < 0 {
		return cfgErr("HeartbeatPeriod", "must be non-negative, got %v", c.HeartbeatPeriod)
	}
	if c.HeartbeatTimeout < 0 {
		return cfgErr("HeartbeatTimeout", "must be non-negative, got %v", c.HeartbeatTimeout)
	}
	if c.HeartbeatTimeout > 0 && c.HeartbeatPeriod == 0 {
		return cfgErr("HeartbeatTimeout", "is set but HeartbeatPeriod is zero (no detector to time out)")
	}
	if c.HeartbeatPeriod > 0 {
		if c.HeartbeatTimeout == 0 {
			c.HeartbeatTimeout = 4 * c.HeartbeatPeriod
		}
		if c.HeartbeatPeriod >= c.HeartbeatTimeout {
			return cfgErr("HeartbeatPeriod", "%v must be shorter than HeartbeatTimeout (%v), or every component is suspected between pings",
				c.HeartbeatPeriod, c.HeartbeatTimeout)
		}
	}
	if c.Protocol == ProtoVcl {
		limit := c.VclProcessLimit
		if limit == 0 {
			limit = DefaultVclProcessLimit
		}
		if limit > 0 && c.NP > limit {
			return cfgErr("NP", "Vcl dispatcher multiplexes with select(): %d processes exceed the ~%d socket limit (paper §5.4); set VclProcessLimit=-1 to override", c.NP, limit)
		}
	}
	if c.ServerNodes != nil && len(c.ServerNodes) != c.servers() {
		return cfgErr("ServerNodes", "has %d entries for %d servers", len(c.ServerNodes), c.servers())
	}
	if c.SpareNodes < 0 {
		return cfgErr("SpareNodes", "must be non-negative, got %d", c.SpareNodes)
	}
	switch c.Recovery {
	case "":
		c.Recovery = RecoveryRestart
	case RecoveryRestart, RecoveryULFM:
	default:
		return cfgErr("Recovery", "unknown recovery mode %q (want %q or %q)",
			c.Recovery, RecoveryRestart, RecoveryULFM)
	}
	if c.FTEvery < 0 {
		return cfgErr("FTEvery", "must be non-negative, got %d", c.FTEvery)
	}
	if c.Placement == nil {
		computeNodes := (c.NP + c.ProcsPerNode - 1) / c.ProcsPerNode
		need := computeNodes + c.servers() + 1 + c.SpareNodes // +1 service node
		if c.ServerNodes != nil {
			need = computeNodes + c.SpareNodes
		}
		need += c.pfsTargets()
		if c.Topology.TotalNodes() < need {
			return cfgErr("Topology", "has %d nodes, need %d (%d compute + %d servers + 1 service + %d spares + %d pfs targets)",
				c.Topology.TotalNodes(), need, computeNodes, c.servers(), c.SpareNodes, c.pfsTargets())
		}
	}
	return c.validateFailures()
}

// validateFailures rejects a scripted kill that could not happen — a
// victim the job does not have, a storage level the spec does not
// declare, a time before the run starts: a run that silently skipped it
// would report a failure-free result for a schedule that asked for a
// failure.  Buffer and PFS kills are judged against Storage as given;
// that Mlog runs without the staging levels is the runtime's business.
func (c *Config) validateFailures() error {
	computeNodes := (c.NP + c.ProcsPerNode - 1) / c.ProcsPerNode
	for i, ev := range c.Failures {
		field := func(name string) string { return fmt.Sprintf("Failures[%d].%s", i, name) }
		if ev.At < 0 {
			return cfgErr(field("At"), "must be non-negative, got %v", ev.At)
		}
		switch ev.Kind {
		case failure.KindRank:
			if ev.Rank < 0 || ev.Rank >= c.NP {
				return cfgErr(field("Rank"), "no rank %d in a job of %d", ev.Rank, c.NP)
			}
		case failure.KindNode:
			if n := c.Topology.TotalNodes(); ev.Node < 0 || ev.Node >= n {
				return cfgErr(field("Node"), "no node %d on a platform of %d", ev.Node, n)
			}
		case failure.KindServer:
			if n := c.servers(); ev.Server < 0 || ev.Server >= n {
				return cfgErr(field("Server"), "no checkpoint server %d among %d", ev.Server, n)
			}
		case failure.KindBuffer:
			if c.Storage == nil || c.Storage.Level(ckpt.LevelBuffer) < 0 {
				return cfgErr(field("Kind"), "a buffer kill needs a %q level in Storage", ckpt.LevelBuffer)
			}
			if ev.Node < 0 || ev.Node >= computeNodes {
				return cfgErr(field("Node"), "no staging buffer on node %d: the job has %d compute nodes", ev.Node, computeNodes)
			}
		case failure.KindPFS:
			n := c.pfsTargets()
			if n == 0 {
				return cfgErr(field("Kind"), "a PFS kill needs a %q level in Storage", ckpt.LevelPFS)
			}
			if ev.Server < 0 || ev.Server >= n {
				return cfgErr(field("Server"), "no PFS target %d among %d", ev.Server, n)
			}
		default:
			return cfgErr(field("Kind"), "unknown failure kind %d", ev.Kind)
		}
	}
	return nil
}

// servers returns the checkpoint-server count, 0 without servers.  Valid
// only after validateStorage.
func (c *Config) servers() int {
	if c.Storage == nil {
		return 0
	}
	return c.Storage.ServersLevel().Servers
}

// pfsTargets returns the PFS target-node count of the storage spec, 0
// without one.  Valid only after validateStorage normalized the spec.
func (c *Config) pfsTargets() int {
	if c.Storage == nil {
		return 0
	}
	if i := c.Storage.Level(ckpt.LevelPFS); i >= 0 {
		return c.Storage.Levels[i].Targets
	}
	return 0
}

// validateStorage turns the Servers shorthand into its one-level spec,
// then checks the spec and applies its defaults in place.  Both steps are
// no-ops on a config it already accepted, so validation is idempotent
// (harnesses validate before handing the config to a job).
func (c *Config) validateStorage() error {
	if c.Servers < 0 {
		return cfgErr("Servers", "must be non-negative, got %d", c.Servers)
	}
	if c.Storage == nil {
		if c.Servers == 0 {
			if c.Protocol != ProtoNone {
				return cfgErr("Servers", "checkpointing requires at least one server")
			}
			return nil
		}
		c.Storage = &ckpt.Spec{Levels: []ckpt.LevelSpec{{Kind: ckpt.LevelServers, Servers: c.Servers}}}
		c.Servers = 0
	}
	if c.Servers != 0 {
		return cfgErr("Servers", "conflicts with Storage (set the servers level's Servers instead)")
	}
	sp := c.Storage
	if len(sp.Levels) == 0 {
		return cfgErr("Storage.Levels", "a storage spec needs at least the servers level")
	}
	if c.ServerNodes != nil && len(sp.Levels) > 1 {
		return cfgErr("ServerNodes", "explicit server placement (grid platforms) takes a Storage with only the servers level")
	}
	srvSeen := -1
	for i := range sp.Levels {
		l := &sp.Levels[i]
		field := func(name string) string { return fmt.Sprintf("Storage.Levels[%d].%s", i, name) }
		switch l.Kind {
		case ckpt.LevelBuffer:
			if i != 0 {
				return cfgErr(field("Kind"), "the buffer is the staging level and must come first")
			}
			if l.Bandwidth < 0 {
				return cfgErr(field("Bandwidth"), "must be non-negative, got %g", l.Bandwidth)
			}
			if l.Latency < 0 {
				return cfgErr(field("Latency"), "must be non-negative, got %v", l.Latency)
			}
			if l.Capacity < 0 {
				return cfgErr(field("Capacity"), "must be non-negative, got %d", l.Capacity)
			}
			if l.Retention < 0 {
				return cfgErr(field("Retention"), "must be non-negative, got %d", l.Retention)
			}
		case ckpt.LevelServers:
			if srvSeen >= 0 {
				return cfgErr(field("Kind"), "exactly one servers level is allowed (already at index %d)", srvSeen)
			}
			srvSeen = i
			if l.Servers <= 0 {
				return cfgErr(field("Servers"), "the servers level needs at least one server, got %d", l.Servers)
			}
			if l.Replicas < 0 {
				return cfgErr(field("Replicas"), "must be non-negative, got %d", l.Replicas)
			}
			if l.WriteQuorum < 0 {
				return cfgErr(field("WriteQuorum"), "must be non-negative, got %d", l.WriteQuorum)
			}
			if l.StoreRetries < 0 {
				return cfgErr(field("StoreRetries"), "must be non-negative, got %d", l.StoreRetries)
			}
			if l.RetryBackoff < 0 {
				return cfgErr(field("RetryBackoff"), "must be non-negative, got %v", l.RetryBackoff)
			}
			if l.Replicas == 0 {
				l.Replicas = 1 // the paper's single-copy model
			}
			if l.Replicas > l.Servers && c.Protocol != ProtoNone {
				return cfgErr(field("Replicas"), "%d replicas exceed the number of servers (%d)", l.Replicas, l.Servers)
			}
			if l.WriteQuorum == 0 {
				l.WriteQuorum = l.Replicas
			}
			if l.WriteQuorum > l.Replicas {
				return cfgErr(field("WriteQuorum"), "quorum %d exceeds Replicas (%d)", l.WriteQuorum, l.Replicas)
			}
		case ckpt.LevelPFS:
			if i != len(sp.Levels)-1 {
				return cfgErr(field("Kind"), "the PFS is the bottom level and must come last")
			}
			if l.Targets < 0 {
				return cfgErr(field("Targets"), "must be non-negative, got %d", l.Targets)
			}
			if l.Stripes < 0 {
				return cfgErr(field("Stripes"), "must be non-negative, got %d", l.Stripes)
			}
			if l.Bandwidth < 0 {
				return cfgErr(field("Bandwidth"), "must be non-negative, got %g", l.Bandwidth)
			}
		default:
			return cfgErr(field("Kind"), "unknown level kind %q (want %q, %q or %q)",
				l.Kind, ckpt.LevelBuffer, ckpt.LevelServers, ckpt.LevelPFS)
		}
	}
	if srvSeen < 0 {
		return cfgErr("Storage.Levels", "a servers level is mandatory (it is the paper's checkpoint-server tier)")
	}
	if sp.FullEvery < 0 {
		return cfgErr("Storage.FullEvery", "must be non-negative, got %d", sp.FullEvery)
	}
	if sp.DirtyFraction < 0 || sp.DirtyFraction > 1 {
		return cfgErr("Storage.DirtyFraction", "must be in [0, 1], got %g", sp.DirtyFraction)
	}
	if sp.CompressRatio < 0 || sp.CompressRatio > 1 {
		return cfgErr("Storage.CompressRatio", "must be in [0, 1], got %g", sp.CompressRatio)
	}
	sp.Normalize()
	return nil
}
