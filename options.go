package ftckpt

import "time"

// Typed facade constants.  Protocol, Platform, Workload and Class are
// string-backed, so the stringly-typed literals of earlier releases
// ("pcl", "ethernet", "bt", "B") keep compiling unchanged; the exported
// constants below are the supported values, and buildConfig rejects
// anything outside them with an error naming the Options field.

// Protocol selects the fault-tolerance protocol of a run.
type Protocol string

// Protocols.
const (
	// ProtocolNone disables checkpointing (baseline runs).  The zero
	// value "" means the same.
	ProtocolNone Protocol = "none"
	// Pcl is the blocking coordinated protocol (MPICH2 implementation).
	Pcl Protocol = "pcl"
	// Vcl is the non-blocking Chandy–Lamport protocol (MPICH-V).
	Vcl Protocol = "vcl"
	// Mlog is uncoordinated checkpointing with pessimistic message
	// logging (single-process recovery).
	Mlog Protocol = "mlog"
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
	// WorkloadMG is the NPB MG model.
	WorkloadMG Workload = "mg"
	// WorkloadLU is the NPB LU model.
	WorkloadLU Workload = "lu"
	// WorkloadCGReal is the real distributed conjugate-gradient kernel.
	WorkloadCGReal Workload = "cg-real"
	// WorkloadEP is the real NAS EP kernel.
	WorkloadEP Workload = "ep"
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
type RecoveryMode string

// Recovery modes.
const (
	// RecoveryRestart is the paper's rollback-restart: a failure kills the
	// whole job, which relaunches from the last committed wave.  The zero
	// value "" means the same.
	RecoveryRestart RecoveryMode = "restart"
	// RecoveryULFM repairs the world in place, ULFM-style: the failed
	// rank's communicator is revoked, the survivors agree on the failure
	// and the newest common application snapshot, a replacement is spliced
	// in (onto a spare node if the machine died) and the job resumes —
	// without moving the committed recovery line.  Requires a workload
	// that keeps in-memory partner snapshots (WorkloadJacobi,
	// WorkloadCGReal); any irreparable failure falls back to
	// RecoveryRestart.  Mlog runs keep their native single-process
	// recovery.
	RecoveryULFM RecoveryMode = "ulfm"
)

// Failure schedules the kill of one component at a virtual time.  Build
// values with KillRank, KillNode, KillServer, KillBuffer or KillPFS; the
// raw struct-literal form (Kind plus the matching index field) is
// deprecated but still honoured.  Kind "" means "rank".
type Failure struct {
	At     time.Duration
	Kind   string
	Rank   int
	Node   int
	Server int
}

// KillRank schedules the kill of one MPI process at virtual time at.
func KillRank(at time.Duration, rank int) Failure {
	return Failure{At: at, Kind: "rank", Rank: rank}
}

// KillNode schedules the kill of a whole compute node: every process on
// it dies and the machine leaves the pool.
func KillNode(at time.Duration, node int) Failure {
	return Failure{At: at, Kind: "node", Node: node}
}

// KillServer schedules the kill of a checkpoint server: its stored images
// and logs are lost; replicas on other servers survive.
func KillServer(at time.Duration, server int) Failure {
	return Failure{At: at, Kind: "server", Server: server}
}

// KillBuffer schedules the loss of one compute node's staging buffer
// (storage-hierarchy runs only): its staged images vanish and in-flight
// drains are cancelled, but the node and its ranks keep running —
// restores fall through to the servers or the PFS.
func KillBuffer(at time.Duration, node int) Failure {
	return Failure{At: at, Kind: "buffer", Node: node}
}

// KillPFS schedules the loss of one parallel-file-system target
// (storage-hierarchy runs only): stripes on it become unreadable, so
// images needing that target can no longer be served from the PFS level.
func KillPFS(at time.Duration, target int) Failure {
	return Failure{At: at, Kind: "pfs", Server: target}
}

// ReplicationSpec groups the checkpoint-image replication knobs.
type ReplicationSpec struct {
	// Replicas keeps that many copies of every image and log set across
	// the checkpoint servers (default 1, the paper's single-copy model).
	Replicas int
	// WriteQuorum is how many replicas must acknowledge before a store
	// counts as durable (default all Replicas).
	WriteQuorum int
	// StoreRetries bounds re-ship and recovery-fetch attempts after a
	// replica dies; RetryBackoff is the delay before each retry.
	StoreRetries int
	RetryBackoff time.Duration
}

// HeartbeatSpec groups the failure-detector knobs.  A non-nil spec with
// Period > 0 replaces instant failure detection with a heartbeat
// detector: the dispatcher pings ranks and servers each Period and
// declares a component dead after Timeout of silence (default 4×Period).
type HeartbeatSpec struct {
	Period  time.Duration
	Timeout time.Duration
}

// LevelKind names a tier of the checkpoint storage hierarchy.
type LevelKind string

// Storage level kinds, fastest to most durable.
const (
	// LevelBuffer is a node-local staging buffer: each compute node
	// absorbs its ranks' images at local-memory speed and drains them to
	// the next level in the background.  Lost with the node.
	LevelBuffer LevelKind = "buffer"
	// LevelServers is the paper's checkpoint-server tier — dedicated
	// nodes holding replicated images, the only mandatory level.
	LevelServers LevelKind = "servers"
	// LevelPFS is a parallel file system: images striped across Targets
	// backend targets, slowest but most durable.
	LevelPFS LevelKind = "pfs"
)

// LevelSpec describes one tier of a StorageSpec.  Zero fields take the
// level kind's defaults; fields that do not apply to a kind must stay
// zero (Servers/Replicas/WriteQuorum are for LevelServers,
// Targets/Stripes for LevelPFS).
type LevelSpec struct {
	// Kind is the tier: LevelBuffer, LevelServers or LevelPFS.
	Kind LevelKind
	// Servers, Replicas, WriteQuorum, StoreRetries and RetryBackoff are
	// the LevelServers knobs — the same knobs ReplicationSpec and
	// Options.Servers configure for the flat single-level model.
	Servers      int
	Replicas     int
	WriteQuorum  int
	StoreRetries int
	RetryBackoff time.Duration
	// Bandwidth (bytes/s) and Latency shape the level's transfer model
	// for LevelBuffer and LevelPFS (LevelServers uses the platform
	// network).  0 keeps the kind's default.
	Bandwidth float64
	Latency   time.Duration
	// Capacity bounds a buffer level's staged bytes per node (0 =
	// unbounded); the oldest staged image is evicted when full.
	// Retention bounds staged images per rank the same way.
	Capacity  int64
	Retention int
	// Targets is the PFS backend-target count (default 4); Stripes is
	// how many targets one image is striped across (default 2).
	Targets int
	Stripes int
}

// StorageSpec describes a multi-level checkpoint storage hierarchy:
// Levels ordered fastest-first (an optional LevelBuffer, the mandatory
// LevelServers, an optional LevelPFS last).  Writes complete at the
// fastest level and drain down asynchronously; restores search from the
// fastest level and fall through on a miss or a failed level.  Setting
// Storage conflicts with Options.Servers and Options.Replication — the
// servers level carries those knobs instead.
type StorageSpec struct {
	// Levels, fastest first.  A single {Kind: LevelServers} level is the
	// flat model expressed in the new form.
	Levels []LevelSpec
	// Incremental switches to dirty-region checkpoints: every FullEvery-th
	// image per rank is full (default 4), the others carry only the
	// regions touched since — DirtyFraction of the image per elapsed
	// interval (default 0.35), restore replaying the chain since the
	// last full image.
	Incremental   bool
	FullEvery     int
	DirtyFraction float64
	// Compress scales stored and restored bytes by CompressRatio
	// (default 0.6) before they hit any level.
	Compress      bool
	CompressRatio float64
}

// Options describes one fault-tolerant MPI run.
type Options struct {
	// Workload selects the application: WorkloadBT, WorkloadCG,
	// WorkloadMG, WorkloadLU (NPB models), WorkloadCGReal, WorkloadEP,
	// WorkloadJacobi (real kernels).  Default WorkloadBT.
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
	// Servers is the number of checkpoint servers (default 1 when
	// checkpointing).  Conflicts with Storage, whose servers level
	// carries the count instead.
	Servers int
	// Replication groups the replication knobs; nil keeps the paper's
	// single-copy model.  Conflicts with Storage.
	Replication *ReplicationSpec
	// Heartbeat enables the ping/timeout failure detector; nil keeps
	// instant failure detection.
	Heartbeat *HeartbeatSpec
	// Storage selects the multi-level checkpoint storage hierarchy; nil
	// keeps the flat single-level server model that Servers and
	// Replication configure.
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
	// an independent failure process).
	Failures   []Failure
	MTTF       time.Duration
	ServerMTTF time.Duration
	NodeMTTF   time.Duration
	// Verbose receives runtime progress lines.
	Verbose func(format string, args ...any)
	// Sink receives every structured observability event of the run (see
	// observe.go); a Collector here enables timeline export.
	Sink Sink
	// Metrics, when set, makes the run fold its counters and histograms
	// into an existing registry instead of a private one — sharing one
	// registry aggregates several runs.
	Metrics *Metrics
	// Attribution attaches the causal span tracer and computes the run's
	// conservation-checked per-phase overhead breakdown, returned on
	// Report.Attribution.
	Attribution bool
	// MetricsSnapshot > 0 samples the run's cumulative counters every
	// period as counter-sample events, rendered by the trace exporters as
	// Perfetto counter tracks alongside the timeline.
	MetricsSnapshot time.Duration
}
