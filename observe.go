package ftckpt

import (
	"io"

	"ftckpt/internal/obs"
	"ftckpt/internal/span"
)

// Observability surface.  The simulator publishes a structured event for
// every protocol action worth seeing — marker sends and receipts, channel
// freezes, logged in-transit messages, checkpoint-image transfers, wave
// commits, failures and restarts — all stamped with virtual time.  Attach
// a Sink through Options.Sink to receive the stream; a ChromeStreamSink
// writes it as a Chrome trace_event timeline (chrome://tracing or
// https://ui.perfetto.dev), a LineSink writes it as one line per event, a
// Collector keeps it for inspection, and every Report carries the run's
// Metrics registry of counters and virtual-time histograms.

// Sink receives structured observability events.
type Sink = obs.Sink

// Event is one structured observability event.
type Event = obs.Event

// EventType identifies the kind of an Event.
type EventType = obs.EventType

// Collector is a Sink that retains every event in order, for inspection.
type Collector = obs.Collector

// Metrics is a run's typed ledger of counters, gauges and virtual-time
// histograms; its exports and Counter/Gauge/Hist name them.
type Metrics = obs.Metrics

// Event types, re-exported from the internal observability package.
const (
	EvMarkerSent       = obs.EvMarkerSent
	EvMarkerRecv       = obs.EvMarkerRecv
	EvChannelBlocked   = obs.EvChannelBlocked
	EvChannelUnblocked = obs.EvChannelUnblocked
	EvSendDelayed      = obs.EvSendDelayed
	EvRecvDelayed      = obs.EvRecvDelayed
	EvMessageLogged    = obs.EvMessageLogged
	EvLocalCkptBegin   = obs.EvLocalCkptBegin
	EvLocalCkptEnd     = obs.EvLocalCkptEnd
	EvImageStoreBegin  = obs.EvImageStoreBegin
	EvImageStoreEnd    = obs.EvImageStoreEnd
	EvLogShipBegin     = obs.EvLogShipBegin
	EvLogShipEnd       = obs.EvLogShipEnd
	EvWaveCommit       = obs.EvWaveCommit
	EvRankKilled       = obs.EvRankKilled
	EvNodeLost         = obs.EvNodeLost
	EvRestartBegin     = obs.EvRestartBegin
	EvRestartEnd       = obs.EvRestartEnd
	EvJobComplete      = obs.EvJobComplete
	EvServerKilled     = obs.EvServerKilled
	EvHeartbeatTimeout = obs.EvHeartbeatTimeout
	EvReplicaFailover  = obs.EvReplicaFailover
	EvStoreRetry       = obs.EvStoreRetry
	EvQuorumLost       = obs.EvQuorumLost
	EvMessageReplayed  = obs.EvMessageReplayed
	EvDegraded         = obs.EvDegraded
	EvComponentDead    = obs.EvComponentDead
	EvRankDone         = obs.EvRankDone
	EvCounterSample    = obs.EvCounterSample
	EvProcFailed       = obs.EvProcFailed
	EvRevoked          = obs.EvRevoked
	EvRepairBegin      = obs.EvRepairBegin
	EvRepairEnd        = obs.EvRepairEnd
	EvRepairAbort      = obs.EvRepairAbort
	EvAppCkpt          = obs.EvAppCkpt
	EvAppRestore       = obs.EvAppRestore
	EvDrainBegin       = obs.EvDrainBegin
	EvDrainEnd         = obs.EvDrainEnd
	EvBufferKilled     = obs.EvBufferKilled
	EvPFSKilled        = obs.EvPFSKilled
	EvImageDurable     = obs.EvImageDurable
	EvCkptDeferred     = obs.EvCkptDeferred
)

// Attribution is a conservation-checked per-phase breakdown of a run's
// virtual completion time — compute, coordination, freeze, logging, image
// transfer, quorum wait, drain, detection, rollback, replay — per rank, in
// aggregate, and along the run's critical path.  Produced on
// Report.Attribution when Options.Attribution is set; its Check method
// re-verifies the conservation invariant, WriteJSON emits the
// byte-deterministic report and WriteTable a human-readable summary.
type Attribution = span.Attribution

// Breakdown is one phase decomposition of a time interval (one rank, the
// aggregate, or the critical path) inside an Attribution.
type Breakdown = span.Breakdown

// ChromeStreamSink writes a Chrome trace_event document to a writer as the
// run progresses: complete spans, instants, counter tracks and flow arrows
// along cause edges.  It keeps the open intervals and one fixed-size
// origin per span id, never the event history.  Call Close after the run
// to finish the JSON document.
type ChromeStreamSink = obs.ChromeStreamSink

// NewChromeStreamSink starts a streaming trace document on w; attach the
// sink through Options.Sink and Close it when the run returns.
func NewChromeStreamSink(w io.Writer) *ChromeStreamSink { return obs.NewChromeStreamSink(w) }

// LineSink writes every event as one fixed-format line of text (virtual
// ns, type, then Rank, Wave, Channel, Node, Server, Level, Bytes, Seq,
// Span and Cause; a counter sample adds its metric name), so two runs
// compare line by line.  ftrun -v writes it to stderr.
type LineSink = obs.LineSink

// NewLineSink returns a LineSink writing to w; attach it through
// Options.Sink and flush w when the run returns.
func NewLineSink(w io.Writer) *LineSink { return obs.NewLineSink(w) }

// NewCollector returns an empty event Collector.
func NewCollector() *Collector { return obs.NewCollector() }

// NewMetrics returns an empty metrics registry, for sharing one registry
// across several runs (aggregated studies).
func NewMetrics() *Metrics { return obs.NewMetrics() }
