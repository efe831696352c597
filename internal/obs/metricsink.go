package obs

import (
	"fmt"

	"ftckpt/internal/sim"
)

// Standard metric names derived from the event stream.  Per-rank,
// per-channel and per-server variants append ".rank<r>", ".ch<src>-<dst>"
// and ".server<s>" suffixes.
const (
	MMarkersSent    = "markers.sent"
	MMarkersRecv    = "markers.recv"
	MDelayedSends   = "pcl.delayed_sends"
	MDelayedRecvs   = "pcl.delayed_recvs"
	MBlockedTime    = "pcl.blocked_time" // hist: per-rank blocked-send span per wave
	MLoggedMsgs     = "log.msgs"         // Vcl channel state + mlog pessimistic logs
	MLoggedBytes    = "log.bytes"
	MLocalCkpts     = "ckpt.local"
	MImageBytes     = "ckpt.image_bytes"
	MImageStoreTime = "ckpt.store_time" // hist: per-image transfer duration
	MLogShipBytes   = "ckpt.log_bytes"
	MWavesCommitted = "waves.committed"
	MFailures       = "failures"
	MRestartTime    = "restart.time" // hist: failure-detection to resumed execution
	// Wave-phase histograms, observed at each global commit (the paper's
	// cost decomposition: flush straggle / transfer / cycle); see wavePhase.
	MWaveSpread   = "wave.spread"
	MWaveTransfer = "wave.transfer"
	MWaveCycle    = "wave.cycle"
	// Robustness metrics: checkpoint-server losses, heartbeat detections
	// (with the detection-latency histogram observed by the process
	// manager, which knows the true death time), false suspicions, fetch
	// failovers, store retries, waves whose write quorum became
	// unreachable, replayed log messages, and degraded stops.
	MServerFailures  = "failures.server"
	MDetectTimeouts  = "detect.timeouts"
	MDetectLatency   = "detect.latency" // hist: component death → detection
	MFalseSuspicions = "detect.false_suspicions"
	MFailovers       = "ckpt.failover"
	MStoreRetries    = "ckpt.store_retry"
	MQuorumLost      = "ckpt.quorum_lost"
	MReplayedMsgs    = "log.replayed"
	MDegradedStops   = "degraded.stops"
	// In-job (ULFM-style) recovery: process failures the job survived in
	// place, completed repairs, and the detection→resume repair latency.
	MProcFailures  = "failures.survived"
	MRepairs       = "repairs"
	MRepairLatency = "repair.latency" // hist: proc-failed → repaired world resumed
	MAppCkpts      = "app.ckpts"
	MAppRestores   = "app.restores"
	// Storage-hierarchy metrics.  Per-level variants append ".l<k>": bytes
	// resident per level (stores and drains landing there), the async
	// drain-duration histogram, and the two level failure classes
	// (node-local buffers, PFS targets).
	MLevelBytes     = "ckpt.level_bytes"
	MDrainBytes     = "ckpt.drain_bytes"
	MDrainTime      = "ckpt.drain_time" // hist: per-image inter-level drain duration
	MBufferFailures = "failures.buffer"
	MPFSFailures    = "failures.pfs"
	// Mlog checkpoint ticks skipped because the previous image was not yet
	// durable (admission control).
	MCkptDeferred = "ckpt.deferred"
	// Application traffic, counted by the fabric per packet (a packet is
	// not an event: the stream would triple in size).
	MFabricMsgs         = "fabric.msgs"
	MFabricPayloadBytes = "fabric.payload_bytes"
)

// wavePhase is what the sink keeps of a checkpoint wave still in flight:
// the first and last local snapshot and the last image to turn durable
// (events arrive in time order, so the last seen is the latest).
// A global commit reads the three phases off it — spread is the flush
// straggle (Pcl) or marker propagation (Vcl) between the snapshots,
// transfer the tail from the last snapshot to the last durable image,
// cycle first snapshot to commit.
type wavePhase struct {
	firstCkpt, lastCkpt, lastDurable sim.Time // firstCkpt < 0: no snapshot yet
}

// tallies names the counter each event type adds one to ("" for none).
var tallies = [numEventTypes]string{
	EvMarkerSent: MMarkersSent, EvMarkerRecv: MMarkersRecv,
	EvSendDelayed: MDelayedSends, EvRecvDelayed: MDelayedRecvs,
	EvMessageLogged: MLoggedMsgs, EvLocalCkptEnd: MLocalCkpts,
	EvCkptDeferred: MCkptDeferred, EvWaveCommit: MWavesCommitted,
	EvRankKilled: MFailures, EvServerKilled: MServerFailures,
	EvHeartbeatTimeout: MDetectTimeouts, EvReplicaFailover: MFailovers,
	EvStoreRetry: MStoreRetries, EvQuorumLost: MQuorumLost,
	EvMessageReplayed: MReplayedMsgs, EvDegraded: MDegradedStops,
	EvProcFailed: MProcFailures, EvRepairEnd: MRepairs,
	EvAppCkpt: MAppCkpts, EvAppRestore: MAppRestores,
	EvBufferKilled: MBufferFailures, EvPFSKilled: MPFSFailures,
}

// MetricsSink folds the event stream into a Metrics registry: counters
// for every discrete event, histograms for the spans it can pair
// (blocked-send windows, image-store transfers, restarts, wave phases).
// Every counter and histogram it writes under a fixed name is a handle
// (Counter, HistHandle), so a logged message hashes no name.
type MetricsSink struct {
	m *Metrics

	tally                                               [numEventTypes]Counter // by event type, from tallies
	loggedBytes, imageBytes, logShipBytes, drainBytes   Counter
	blockedTime, imageStoreTime, restartTime, drainTime HistHandle
	waveSpread, waveTransfer, waveCycle, repairLatency  HistHandle

	waves        map[int]*wavePhase  // wave → phases of the wave in flight
	blockedSince map[int]sim.Time    // rank → EvChannelBlocked time
	storeSince   map[[3]int]sim.Time // (rank, wave, server) → EvImageStoreBegin time
	restartSince map[int]sim.Time    // rank (-1 global) → EvRestartBegin time
	repairSince  map[int]sim.Time    // failed rank → EvProcFailed time
	drainSince   map[[3]int]sim.Time // (rank, wave, level) → EvDrainBegin time

	// names and channels hold the indexed counters (".rank<r>",
	// ".server<s>", ".l<k>", and log.bytes' ".ch<s>-<d>"): a name is
	// formatted and bound on its first use, not once per event — a logged
	// message is an event.
	names    map[nameKey]*int64
	channels map[[2]int32]*int64 // (src, dst) → log.bytes.ch<src>-<dst>
}

// nameKey is one indexed counter name before formatting.
type nameKey struct {
	format string
	a      int
}

// indexed returns the counter named fmt.Sprintf(format, a).
func (s *MetricsSink) indexed(format string, a int) *int64 {
	k := nameKey{format, a}
	c, ok := s.names[k]
	if !ok {
		c = s.m.counter(fmt.Sprintf(format, a))
		s.names[k] = c
	}
	return c
}

// channel returns the log.bytes counter of the channel src → dst.
func (s *MetricsSink) channel(src, dst int) *int64 {
	k := [2]int32{int32(src), int32(dst)}
	c, ok := s.channels[k]
	if !ok {
		c = s.m.counter(fmt.Sprintf(MLoggedBytes+".ch%d-%d", src, dst))
		s.channels[k] = c
	}
	return c
}

// NewMetricsSink builds a sink folding into m, pre-registering the
// standard keys so every export carries the full schema (a Pcl run still
// shows log.bytes = 0, a Vcl run still shows pcl.delayed_sends = 0).
func NewMetricsSink(m *Metrics) *MetricsSink {
	for _, c := range []string{
		MMarkersSent, MMarkersRecv, MDelayedSends, MDelayedRecvs,
		MLoggedMsgs, MLoggedBytes, MLocalCkpts, MImageBytes, MLogShipBytes,
		MWavesCommitted, MFailures,
		MServerFailures, MDetectTimeouts, MFalseSuspicions,
		MFailovers, MStoreRetries, MQuorumLost, MReplayedMsgs, MDegradedStops,
		MProcFailures, MRepairs, MAppCkpts, MAppRestores,
		MLevelBytes, MDrainBytes,
		MBufferFailures, MPFSFailures,
	} {
		m.Touch(c)
	}
	for _, h := range []string{
		MBlockedTime, MImageStoreTime, MRestartTime,
		MWaveSpread, MWaveTransfer, MWaveCycle, MDetectLatency,
		MRepairLatency, MDrainTime,
	} {
		m.TouchHist(h)
	}
	s := &MetricsSink{
		m:              m,
		loggedBytes:    m.CounterHandle(MLoggedBytes),
		imageBytes:     m.CounterHandle(MImageBytes),
		logShipBytes:   m.CounterHandle(MLogShipBytes),
		drainBytes:     m.CounterHandle(MDrainBytes),
		blockedTime:    m.HistHandle(MBlockedTime),
		imageStoreTime: m.HistHandle(MImageStoreTime),
		restartTime:    m.HistHandle(MRestartTime),
		drainTime:      m.HistHandle(MDrainTime),
		waveSpread:     m.HistHandle(MWaveSpread),
		waveTransfer:   m.HistHandle(MWaveTransfer),
		waveCycle:      m.HistHandle(MWaveCycle),
		repairLatency:  m.HistHandle(MRepairLatency),
		waves:          make(map[int]*wavePhase),
		blockedSince:   make(map[int]sim.Time),
		storeSince:     make(map[[3]int]sim.Time),
		restartSince:   make(map[int]sim.Time),
		repairSince:    make(map[int]sim.Time),
		drainSince:     make(map[[3]int]sim.Time),
		names:          make(map[nameKey]*int64),
		channels:       make(map[[2]int32]*int64),
	}
	for t, name := range tallies {
		if name != "" {
			s.tally[t] = m.CounterHandle(name)
		}
	}
	return s
}

// Metrics returns the registry the sink folds into.
func (s *MetricsSink) Metrics() *Metrics { return s.m }

func (s *MetricsSink) wave(w int) *wavePhase {
	wp, ok := s.waves[w]
	if !ok {
		wp = &wavePhase{firstCkpt: -1}
		s.waves[w] = wp
	}
	return wp
}

// Emit folds one event.
func (s *MetricsSink) Emit(ev Event) {
	s.tally[ev.Type].Inc()
	switch ev.Type {
	case EvChannelBlocked:
		s.blockedSince[ev.Rank] = ev.T
	case EvChannelUnblocked:
		if t0, ok := s.blockedSince[ev.Rank]; ok {
			delete(s.blockedSince, ev.Rank)
			s.blockedTime.Observe(ev.T - t0)
			*s.indexed(MBlockedTime+".rank%d", ev.Rank) += int64(ev.T - t0)
		}
	case EvMessageLogged:
		s.loggedBytes.Add(ev.Bytes)
		*s.channel(ev.Channel, ev.Rank) += ev.Bytes
	case EvLocalCkptEnd:
		wp := s.wave(ev.Wave)
		if wp.firstCkpt < 0 {
			wp.firstCkpt = ev.T
		}
		wp.lastCkpt = ev.T
	case EvImageDurable:
		wp := s.wave(ev.Wave)
		wp.lastDurable = ev.T
	case EvImageStoreBegin:
		s.storeSince[[3]int{ev.Rank, ev.Wave, ev.Server}] = ev.T
	case EvImageStoreEnd:
		s.imageBytes.Add(ev.Bytes)
		if ev.Server >= 0 {
			*s.indexed(MImageBytes+".server%d", ev.Server) += ev.Bytes
		} else {
			// A node-local buffer store (no server index): account it to
			// its hierarchy level instead.
			*s.indexed(MLevelBytes+".l%d", ev.Level) += ev.Bytes
		}
		if t0, ok := s.storeSince[[3]int{ev.Rank, ev.Wave, ev.Server}]; ok {
			delete(s.storeSince, [3]int{ev.Rank, ev.Wave, ev.Server})
			s.imageStoreTime.Observe(ev.T - t0)
			if ev.Server >= 0 {
				*s.indexed("ckpt.store_ns.server%d", ev.Server) += int64(ev.T - t0)
			}
		}
	case EvLogShipEnd:
		s.logShipBytes.Add(ev.Bytes)
	case EvWaveCommit:
		// A per-rank commit (uncoordinated checkpointing) closes no wave:
		// ranks number their checkpoints independently, so the entry mixes
		// unrelated ranks and is dropped unobserved.
		if wp, ok := s.waves[ev.Wave]; ok && ev.Rank < 0 && wp.firstCkpt >= 0 {
			s.waveSpread.Observe(wp.lastCkpt - wp.firstCkpt)
			s.waveTransfer.Observe(wp.lastDurable - wp.lastCkpt)
			s.waveCycle.Observe(ev.T - wp.firstCkpt)
		}
		delete(s.waves, ev.Wave)
	case EvRestartBegin:
		s.restartSince[ev.Rank] = ev.T
		if ev.Rank < 0 {
			// A global rollback re-executes every wave past the recovery
			// line under the same numbers: the aborted attempts' snapshots
			// must not smear into the re-executed waves.
			clear(s.waves)
		}
	case EvRestartEnd:
		if t0, ok := s.restartSince[ev.Rank]; ok {
			delete(s.restartSince, ev.Rank)
			s.restartTime.Observe(ev.T - t0)
		}
	case EvProcFailed:
		s.repairSince[ev.Rank] = ev.T
	case EvRepairEnd:
		// The repaired world is a new generation, as after a restart:
		// waves the revoked one left open are re-executed.
		clear(s.waves)
		if t0, ok := s.repairSince[ev.Channel]; ok {
			delete(s.repairSince, ev.Channel)
			s.repairLatency.Observe(ev.T - t0)
		}
	case EvDrainBegin:
		s.drainSince[[3]int{ev.Rank, ev.Wave, ev.Level}] = ev.T
	case EvDrainEnd:
		s.drainBytes.Add(ev.Bytes)
		*s.indexed(MLevelBytes+".l%d", ev.Level) += ev.Bytes
		if t0, ok := s.drainSince[[3]int{ev.Rank, ev.Wave, ev.Level}]; ok {
			delete(s.drainSince, [3]int{ev.Rank, ev.Wave, ev.Level})
			s.drainTime.Observe(ev.T - t0)
		}
	}
}
