package ftckpt

import (
	"time"

	"ftckpt/internal/ckpt"
	"ftckpt/internal/failure"
	"ftckpt/internal/ftpm"
)

// Typed facade constants.  Protocol, Platform, Workload and Class are
// string-backed, so untyped string literals ("pcl", "ethernet", "bt",
// "B") compile where the types are expected; the exported
// constants below are the supported values, and anything outside them is
// rejected with a *ConfigError naming the field.
//
// The types a run is described with below Options — Protocol,
// RecoveryMode, Failure, StorageSpec, LevelSpec, LevelKind (and ChaosSpec
// in chaos.go) — are aliases of the runtime's own types: Options is
// handed to the process manager as written, with no second schema to
// keep in step.

// Protocol selects the fault-tolerance protocol of a run.
type Protocol = ftpm.Proto

// Protocols.
const (
	// ProtocolNone disables checkpointing (baseline runs).  The zero
	// value "" means the same.
	ProtocolNone = ftpm.ProtoNone
	// Pcl is the blocking coordinated protocol (MPICH2 implementation).
	Pcl = ftpm.ProtoPcl
	// Vcl is the non-blocking Chandy–Lamport protocol (MPICH-V).
	Vcl = ftpm.ProtoVcl
	// Mlog is uncoordinated checkpointing with pessimistic message
	// logging (single-process recovery).
	Mlog = ftpm.ProtoMlog
)

// Platform selects the simulated platform of a run.
type Platform string

// Platforms.
const (
	// PlatformEthernet is the Gigabit-Ethernet cluster (default).
	PlatformEthernet Platform = "ethernet"
	// PlatformMyrinetGM is Myrinet through the GM/Nemesis stack.
	PlatformMyrinetGM Platform = "myrinet-gm"
	// PlatformMyrinetTCP is Myrinet through the TCP/sock stack.
	PlatformMyrinetTCP Platform = "myrinet-tcp"
	// PlatformGrid is the six-cluster Grid'5000 topology with
	// per-cluster checkpoint servers.
	PlatformGrid Platform = "grid"
)

// Workload selects the application of a run.
type Workload string

// Workloads.
const (
	// WorkloadBT is the NPB BT model (default).
	WorkloadBT Workload = "bt"
	// WorkloadCG is the NPB CG model.
	WorkloadCG Workload = "cg"
	// WorkloadCGReal is the real distributed conjugate-gradient kernel.
	WorkloadCGReal Workload = "cg-real"
	// WorkloadJacobi is the real 2D heat-diffusion kernel.
	WorkloadJacobi Workload = "jacobi"
)

// Class selects the NPB problem class for the model workloads.
type Class string

// NPB classes.
const (
	ClassA Class = "A"
	ClassB Class = "B"
	ClassC Class = "C"
)

// RecoveryMode selects how a run reacts to process failures.
type RecoveryMode = ftpm.Recovery

// Recovery modes.
const (
	// RecoveryRestart is the paper's rollback-restart: a failure kills the
	// whole job, which relaunches from the last committed wave.  The zero
	// value "" means the same.
	RecoveryRestart = ftpm.RecoveryRestart
	// RecoveryULFM repairs the world in place, ULFM-style: the failed
	// rank's communicator is revoked, the survivors agree on the failure
	// and the newest common application snapshot, a replacement is spliced
	// in (onto a spare node if the machine died) and the job resumes —
	// without moving the committed recovery line.  Requires a workload
	// that keeps in-memory partner snapshots (WorkloadJacobi,
	// WorkloadCGReal); any irreparable failure falls back to
	// RecoveryRestart.  Mlog runs keep their native single-process
	// recovery.
	RecoveryULFM = ftpm.RecoveryULFM
)

// Failure schedules the kill of one component at a virtual time.  Build
// values with KillRank, KillNode, KillServer, KillBuffer or KillPFS;
// Victim returns the index in the kind's own space and String renders
// "kill <kind> <victim> @ <t>".  A victim the job does not have, or a
// negative time, is rejected before the run starts.
type Failure = failure.Event

// KillRank schedules the kill of one MPI process at virtual time at.
func KillRank(at time.Duration, rank int) Failure {
	return Failure{At: at, Kind: failure.KindRank, Rank: rank}
}

// KillNode schedules the kill of a whole compute node: every process on
// it dies and the machine leaves the pool.
func KillNode(at time.Duration, node int) Failure {
	return Failure{At: at, Kind: failure.KindNode, Node: node}
}

// KillServer schedules the kill of a checkpoint server: its stored images
// and logs are lost; replicas on other servers survive.
func KillServer(at time.Duration, server int) Failure {
	return Failure{At: at, Kind: failure.KindServer, Server: server}
}

// KillBuffer schedules the loss of one compute node's staging buffer
// (storage-hierarchy runs only): its staged images vanish and in-flight
// drains are cancelled, but the node and its ranks keep running —
// restores fall through to the servers or the PFS.
func KillBuffer(at time.Duration, node int) Failure {
	return Failure{At: at, Kind: failure.KindBuffer, Node: node}
}

// KillPFS schedules the loss of one parallel-file-system target
// (storage-hierarchy runs only): stripes on it become unreadable, so
// images needing that target can no longer be served from the PFS level.
func KillPFS(at time.Duration, target int) Failure {
	return Failure{At: at, Kind: failure.KindPFS, Server: target}
}

// HeartbeatSpec groups the failure-detector knobs.  A non-nil spec with
// Period > 0 replaces instant failure detection with a heartbeat
// detector: the dispatcher pings ranks and servers each Period and
// declares a component dead after Timeout of silence (default 4×Period).
type HeartbeatSpec = ftpm.HeartbeatSpec

// LevelKind names a tier of the checkpoint storage hierarchy.
type LevelKind = ckpt.LevelKind

// Storage level kinds, fastest to most durable.
const (
	// LevelBuffer is a node-local staging buffer: each compute node
	// absorbs its ranks' images at local-memory speed and drains them to
	// the next level in the background.  Lost with the node.
	LevelBuffer = ckpt.LevelBuffer
	// LevelServers is the paper's checkpoint-server tier — dedicated
	// nodes holding replicated images, the only mandatory level.
	LevelServers = ckpt.LevelServers
	// LevelPFS is a parallel file system: images striped across Targets
	// backend targets, slowest but most durable.
	LevelPFS = ckpt.LevelPFS
)

// LevelSpec describes one tier of a StorageSpec.  Zero fields take the
// level kind's defaults; fields that do not apply to a kind must stay
// zero (Servers/Replicas/WriteQuorum/StoreRetries/RetryBackoff are for
// LevelServers, and the only place a run's server count, replication,
// write quorum and retries are set; Targets/Stripes for LevelPFS, default
// 4 targets and 2 stripes).  Replicas defaults to 1, the paper's
// single-copy model, and WriteQuorum to all Replicas; StoreRetries bounds
// the re-ship and recovery-fetch attempts after a replica dies, each
// RetryBackoff after the last.  A LevelBuffer has no fields: it is an
// unbounded node-local device at 2 GB/s plus 200 µs per operation, and a
// PFS stripe moves at up to 1 GB/s.
type LevelSpec = ckpt.LevelSpec

// StorageSpec describes a multi-level checkpoint storage hierarchy:
// Levels ordered fastest-first (an optional LevelBuffer, the mandatory
// LevelServers, an optional LevelPFS last).  Writes complete at the
// fastest level and drain down asynchronously; restores search from the
// fastest level and fall through on a miss or a failed level.
// Incremental stores dirty-region deltas (a full image every 4th
// checkpoint, a delta d intervals past it min(1, 0.35·d) of the full
// size); Compress shrinks stored and restored bytes to 60%.  Setting
// Storage conflicts with Options.Servers, which is shorthand for a spec
// with only the servers level.  A run never writes to the caller's spec.
type StorageSpec = ckpt.Spec

// Options describes one fault-tolerant MPI run.
type Options struct {
	// Workload selects the application: WorkloadBT, WorkloadCG (NPB
	// models), WorkloadCGReal, WorkloadJacobi (real kernels).  Default
	// WorkloadBT.
	Workload Workload
	// Class is the NPB class for the model workloads: ClassA, ClassB or
	// ClassC.  Default ClassB.
	Class Class
	// NP is the number of MPI processes; ProcsPerNode co-locates them
	// (dual-processor nodes sharing one NIC, default 1).
	NP           int
	ProcsPerNode int
	// Protocol is ProtocolNone, Pcl (blocking), Vcl (non-blocking) or
	// Mlog (uncoordinated checkpointing + pessimistic message logging);
	// Interval is the time between checkpoint waves (per process for
	// Mlog).
	Protocol Protocol
	Interval time.Duration
	// Servers is shorthand for a Storage with only the servers level and
	// that many single-copy checkpoint servers (default 1 when
	// checkpointing).  Conflicts with Storage.
	Servers int
	// Heartbeat enables the ping/timeout failure detector; nil keeps
	// instant failure detection.
	Heartbeat *HeartbeatSpec
	// Storage describes the checkpoint storage: the server tier, whose
	// servers level sets the server count and replication, optionally
	// with a staging buffer above it and a PFS below it.  Nil means the
	// tier Servers describes.
	Storage *StorageSpec
	// Platform is PlatformEthernet (default), PlatformMyrinetGM,
	// PlatformMyrinetTCP or PlatformGrid.
	Platform Platform
	// VclProcessLimit overrides the Vcl dispatcher's select() limit
	// (paper §5.4, ~300 processes); -1 removes it for what-if studies at
	// larger scales, 0 keeps the default.
	VclProcessLimit int
	// Recovery selects the failure-recovery mode: RecoveryRestart (the
	// default) or RecoveryULFM (in-job repair from partner snapshots).
	Recovery RecoveryMode
	// Spares reserves that many spare compute nodes for ULFM node-loss
	// repairs: when a machine dies with its rank, the replacement is
	// spliced onto a spare instead of overbooking a survivor.
	Spares int
	// Seed drives the deterministic simulation.
	Seed int64
	// Shards does nothing.
	//
	// Deprecated: ignored; the simulator runs one event queue, use Sweep
	// (ftrun/figures -jobs) for parallelism.
	Shards int
	// Failures schedules component kills (KillRank, KillNode, KillServer,
	// KillBuffer, KillPFS); MTTF adds memoryless rank failures, ServerMTTF and
	// NodeMTTF the same for checkpoint servers and compute nodes (each
	// an independent failure process; ServerMTTF needs servers).
	Failures   []Failure
	MTTF       time.Duration
	ServerMTTF time.Duration
	NodeMTTF   time.Duration
	// Sink receives every structured observability event of the run (see
	// observe.go); a Collector here enables timeline export.
	Sink Sink
	// Metrics, when set, receives the run's counters and histograms when
	// Run returns, also when it returns an error — sharing one registry
	// aggregates several runs.  The run itself counts into a registry of
	// its own, so Report describes this run alone.
	Metrics *Metrics
	// Attribution attaches the causal span tracer and computes the run's
	// conservation-checked per-phase overhead breakdown, returned on
	// Report.Attribution.
	Attribution bool
	// MetricsSnapshot > 0 samples the run's cumulative counters every
	// period as counter-sample events, rendered by the trace exporter as
	// Perfetto counter tracks alongside the timeline; negative is refused.
	MetricsSnapshot time.Duration
}
