// Package obs is the observability layer of the runtime: a typed,
// allocation-light event bus carrying protocol-level events stamped with
// virtual time, a metrics registry (counters, gauges, virtual-time
// histograms), and exporters — a Chrome trace_event timeline loadable in
// chrome://tracing / Perfetto, and flat JSON/CSV metrics dumps.
//
// The paper's contribution is a measurement: decomposing checkpoint cost
// into synchronization/flush straggle, in-transit message logging and
// image-transfer contention.  Every layer of the stack (protocols, the
// checkpoint servers, the MPI engine and fabric, the network, the process
// manager) emits structured events into a Hub; sinks consume them — the
// ChromeStreamSink for timelines, the MetricsSink for aggregates, the
// LineSink for the one-line-per-event text stream (-v), the Collector for
// tests.  Everything is deterministic: a fixed seed produces
// byte-identical exports.
package obs

import "ftckpt/internal/sim"

// EventType identifies a structured trace event.
type EventType uint8

// Event types, covering all three protocol families plus the runtime.
const (
	// EvMarkerSent: a checkpoint-wave marker left Rank towards Channel
	// (the destination rank; the Vcl scheduler emits with Rank = -2).
	EvMarkerSent EventType = iota
	// EvMarkerRecv: Rank received the marker Channel (source rank) sent.
	EvMarkerRecv
	// EvChannelBlocked: Rank froze its sends for a wave (Pcl's delayed-send
	// gate closed; Channel is -1: all channels block together).
	EvChannelBlocked
	// EvChannelUnblocked: the local checkpoint is taken and Rank released
	// its delayed sends; the blocked-send span ends.
	EvChannelUnblocked
	// EvSendDelayed: one payload to Channel was queued behind the gate.
	EvSendDelayed
	// EvRecvDelayed: one payload from the flushed channel Channel was moved
	// to the delayed-receive queue instead of being matched.
	EvRecvDelayed
	// EvMessageLogged: one in-transit payload from Channel was captured as
	// channel state (Vcl) or logged before delivery (mlog); Bytes is its
	// payload size.
	EvMessageLogged
	// EvLocalCkptBegin: Rank entered wave Wave (Pcl: the flush/freeze
	// begins; Vcl/mlog: the snapshot is immediate).
	EvLocalCkptBegin
	// EvLocalCkptEnd: Rank captured its local image for wave Wave.
	EvLocalCkptEnd
	// EvImageStoreBegin: the image transfer of (Rank, Wave) started towards
	// checkpoint server Server; Bytes is the image size.
	EvImageStoreBegin
	// EvImageStoreEnd: the image of (Rank, Wave) is on stable storage.
	EvImageStoreEnd
	// EvLogShipBegin: a channel-state/log transfer of (Rank, Wave) started
	// towards Server; Bytes is the wire size.
	EvLogShipBegin
	// EvLogShipEnd: the log transfer completed.
	EvLogShipEnd
	// EvWaveCommit: the recovery line advanced to Wave (Rank is the
	// committing rank for uncoordinated protocols, -1 for a global commit).
	EvWaveCommit
	// EvRankKilled: Rank failed (injected or MTTF); Wave is the recovery
	// line it will restart from.
	EvRankKilled
	// EvNodeLost: machine Node left the pool; its ranks move to a spare
	// node, or onto a surviving compute node when no spare remains.
	EvNodeLost
	// EvRestartBegin: recovery began fetching images for wave Wave (Rank is
	// -1 for a global rollback, the restarting rank for mlog).
	EvRestartBegin
	// EvRestartEnd: the restarted process(es) resumed execution.
	EvRestartEnd
	// EvJobComplete: every rank finalized.
	EvJobComplete
	// EvServerKilled: checkpoint server Server (on machine Node) was lost;
	// every image and log it stored is gone.
	EvServerKilled
	// EvHeartbeatTimeout: the dispatcher's heartbeat detector declared a
	// component dead — Rank ≥ 0 names a rank, else Server ≥ 0 names a
	// checkpoint server.  A true detection's Cause is the span of the
	// death it detects (EvComponentDead, EvServerKilled); a false
	// suspicion (a live component exceeded the timeout) has no Cause.
	EvHeartbeatTimeout
	// EvReplicaFailover: a fetch fell over from a dead or incomplete
	// replica to checkpoint server Server for (Rank, Wave).
	EvReplicaFailover
	// EvStoreRetry: a store attempt to replica Server for (Rank, Wave)
	// found it dead (or lost its transfer) and was re-scheduled.
	EvStoreRetry
	// EvQuorumLost: a store for (Rank, Wave) can no longer reach its write
	// quorum — too many replicas lost; the wave cannot commit.
	EvQuorumLost
	// EvMessageReplayed: recovery re-delivered one logged in-transit
	// message from Channel to Rank (Seq is the per-pair protocol sequence
	// number when the protocol stamps one; Bytes the payload size).
	EvMessageReplayed
	// EvDegraded: the job stopped in degraded mode — unrecoverable loss;
	// the job returns the structured error (DegradedError).
	EvDegraded
	// EvComponentDead: the simulator's omniscient record of a silent death
	// under heartbeat detection — Rank (or Server) stopped at T, but the
	// dispatcher does not know yet.  Opens the detection-latency span that
	// the matching EvHeartbeatTimeout closes.
	EvComponentDead
	// EvRankDone: Rank finalized (reached the end of its program).  The
	// last EvRankDone anchors the critical path of the run.
	EvRankDone
	// EvCounterSample: a periodic metrics snapshot — Detail is the metric
	// name, Bytes its current value.  Rendered as a counter track in the
	// Chrome trace.
	EvCounterSample
	// EvProcFailed: a process failure the job survives in place (ULFM
	// in-job recovery): Rank died but the world is repaired rather than
	// rolled back.  Opens the repair pipeline the matching EvRepairEnd
	// closes.
	EvProcFailed
	// EvRevoked: the communicator was revoked — every survivor's pending
	// and future operations against the failed incarnation abort with
	// ErrRevoked.  Rank is the revoking runtime (-1).
	EvRevoked
	// EvRepairBegin: the shrink/spare-splice/rebind repair of the world
	// began (Rank is -1: all survivors participate; Wave is the committed
	// wave the fresh protocol instances continue from).
	EvRepairBegin
	// EvRepairEnd: the repaired world resumed execution; the span opened
	// by EvRepairBegin closes (detection → revoke → repair → resume).
	EvRepairEnd
	// EvRepairAbort: an open repair window was abandoned (no common
	// snapshot level, or a rank finished while the world was parked) and
	// the failure falls back to a classic rollback-restart; the span
	// opened by EvRepairBegin closes here and the matching EvRankKilled
	// documents the fallback.
	EvRepairAbort
	// EvAppCkpt: Rank captured an application-level in-memory checkpoint
	// and exchanged it with its partner rank (Channel); Bytes is the
	// snapshot size.
	EvAppCkpt
	// EvAppRestore: Rank restored its application state to the snapshot
	// of level Wave after a repair — a survivor from its own snapshot, the
	// repaired rank (the repair's Channel) from the partner-held copy.
	EvAppRestore
	// EvDrainBegin: the asynchronous copy of (Rank, Wave)'s image from
	// storage level Level-1 down to Level started; Bytes is the stored
	// (possibly incremental/compressed) size.
	EvDrainBegin
	// EvDrainEnd: the drain completed; the image is resident at Level.
	EvDrainEnd
	// EvBufferKilled: the node-local checkpoint buffer on machine Node was
	// lost (buffer failure class, or the node itself died); staged images
	// not yet drained are gone.
	EvBufferKilled
	// EvPFSKilled: parallel-file-system target Server was lost; every
	// image with a stripe on it is unreadable.
	EvPFSKilled
	// EvImageDurable: the image of (Rank, Wave) reached its write quorum —
	// the instant the checkpoint counts as stored, whatever replicas or
	// levels it still drains to.  The last one of a wave ends its
	// image-transfer phase (wave.transfer).
	EvImageDurable
	// EvCkptDeferred: an Mlog checkpoint tick of Rank found its previous
	// image (Wave) not yet durable and skipped this checkpoint (admission
	// control); the timer re-arms.  Emitted only on a deferred tick.
	EvCkptDeferred

	numEventTypes
)

var eventNames = [numEventTypes]string{
	"marker-sent", "marker-recv", "channel-blocked", "channel-unblocked",
	"send-delayed", "recv-delayed", "message-logged",
	"local-ckpt-begin", "local-ckpt-end",
	"image-store-begin", "image-store-end", "log-ship-begin", "log-ship-end",
	"wave-commit", "rank-killed", "node-lost",
	"restart-begin", "restart-end", "job-complete",
	"server-killed", "heartbeat-timeout", "replica-failover", "store-retry",
	"quorum-lost", "message-replayed", "degraded",
	"component-dead", "rank-done", "counter-sample",
	"proc-failed", "revoked", "repair-begin", "repair-end", "repair-abort",
	"app-ckpt", "app-restore",
	"drain-begin", "drain-end", "buffer-killed", "pfs-killed",
	"image-durable", "ckpt-deferred",
}

// String returns the event type's kebab-case name.
func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "unknown"
}

// Event is one structured trace record.  It is a plain value — emitting
// one allocates nothing beyond what the sink retains.  Fields that do not
// apply to a type are -1 (ints) or 0 (Bytes); see the EventType docs for
// which fields each type carries.
type Event struct {
	Type EventType
	// T is the virtual timestamp.
	T sim.Time
	// Rank is the emitting process, -1 for the runtime, -2 for the Vcl
	// scheduler (mpi.SchedulerID).
	Rank int
	// Wave is the checkpoint wave, -1 when not wave-scoped.
	Wave int
	// Channel is the peer rank of the channel involved, -1 when not
	// channel-scoped.
	Channel int
	// Node is the machine involved (EvNodeLost), -1 otherwise.
	Node int
	// Server is the checkpoint server index, -1 otherwise.  For
	// EvPFSKilled it is the PFS target index.
	Server int
	// Level is the storage-hierarchy level the event concerns (0 = the
	// topmost configured level).  0 also for events that predate the
	// hierarchy; level-scoped events (drains, buffer/pfs kills)
	// always carry it explicitly.
	Level int
	// Bytes is the payload/image/log size when the event moves data.
	Bytes int64
	// Seq is the per-pair protocol sequence number for logged/replayed
	// messages under protocols that stamp one (mlog), 0 otherwise.
	Seq uint64
	// Span is the causal-span identifier this event belongs to (allocated
	// with Hub.NextSpan), 0 when the event is not span-scoped.  Begin/end
	// event pairs share one Span; a marker's send and receipt share the
	// marker's flight span.
	Span uint64
	// Cause is the Span of the event that causally triggered this one
	// (marker flight → wave entry, snapshot → freeze, kill → detection →
	// restart), 0 when there is no recorded cause.  The Chrome exporter
	// renders cause edges as Perfetto flow arrows; internal/span rebuilds
	// the DAG.
	Cause uint64
	// Detail is the metric name of an EvCounterSample, empty otherwise.
	Detail string
}

// Sink consumes events.  Emit runs in simulation (single-threaded)
// context; implementations need no locking.
type Sink interface {
	Emit(Event)
}

// Hub fans events out to its sinks.  A nil *Hub is a valid no-op emitter,
// so instrumented layers never branch on "is observability on".  The hub
// also allocates span identifiers: one counter per hub, incremented in
// emission order, so IDs are deterministic per run and independent of how
// many runs execute concurrently (each run owns its hub).
type Hub struct {
	sinks    []Sink
	nextSpan uint64
}

// NewHub builds a hub over the given sinks (nils are skipped).
func NewHub(sinks ...Sink) *Hub {
	h := &Hub{}
	for _, s := range sinks {
		if s != nil {
			h.sinks = append(h.sinks, s)
		}
	}
	return h
}

// Emit forwards the event to every sink.  Safe on a nil hub.
func (h *Hub) Emit(ev Event) {
	if h == nil {
		return
	}
	for _, s := range h.sinks {
		s.Emit(ev)
	}
}

// NextSpan allocates a fresh span identifier.  Runs in simulation
// (single-threaded) context; IDs start at 1 so 0 always means "no span".
// Safe on a nil hub, which returns 0 (events stay unstamped).
func (h *Hub) NextSpan() uint64 {
	if h == nil {
		return 0
	}
	h.nextSpan++
	return h.nextSpan
}

// Collector is a sink retaining every event in emission order, for
// event-level assertions and replaying a stream through another sink.
// Events land in fixed chunks, so a long run never copies what it has
// collected; Events flattens them once, into a slice of the exact length.
type Collector struct {
	chunks [][]Event
	n      int
	flat   []Event // every event when len(flat) == n
}

// collectorChunk is how many events one chunk holds.
const collectorChunk = 1024

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit appends the event.
func (c *Collector) Emit(ev Event) {
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last]) == cap(c.chunks[last]) {
		c.chunks = append(c.chunks, make([]Event, 0, collectorChunk))
		last++
	}
	c.chunks[last] = append(c.chunks[last], ev)
	c.n++
}

// Events returns the collected events in emission order (shared slice;
// callers must not mutate).  The flattened slice replaces the chunks, so
// the events are held once.
func (c *Collector) Events() []Event {
	if len(c.flat) != c.n {
		flat := make([]Event, 0, c.n)
		for _, ch := range c.chunks {
			flat = append(flat, ch...)
		}
		c.flat, c.chunks = flat, [][]Event{flat}
	}
	return c.flat
}

// Filter returns the collected events of one type, in emission order.
func (c *Collector) Filter(t EventType) []Event {
	var out []Event
	for _, ev := range c.Events() {
		if ev.Type == t {
			out = append(out, ev)
		}
	}
	return out
}

// Count returns how many events of one type were collected.
func (c *Collector) Count(t EventType) int {
	n := 0
	for _, ev := range c.Events() {
		if ev.Type == t {
			n++
		}
	}
	return n
}
