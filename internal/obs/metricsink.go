package obs

import "ftckpt/internal/sim"

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

// MetricsSink folds the event stream into a Metrics ledger: a tally of
// every event type, byte totals and per-index families off the events'
// fields, and histograms for the spans it can pair (blocked-send windows,
// image-store transfers, restarts, drains, repairs, wave phases,
// detections).
type MetricsSink struct {
	m *Metrics

	waves        map[int]*wavePhase  // wave → phases of the wave in flight
	blockedSince map[int]sim.Time    // rank → EvChannelBlocked time
	storeSince   map[[3]int]sim.Time // (rank, wave, server) → EvImageStoreBegin time
	restartSince map[int]sim.Time    // rank (-1 global) → EvRestartBegin time
	repairSince  map[int]sim.Time    // failed rank → EvProcFailed time
	drainSince   map[[3]int]sim.Time // (rank, wave, level) → EvDrainBegin time
	diedAt       map[uint64]sim.Time // span of an EvComponentDead or EvServerKilled → its time
}

// NewMetricsSink builds a sink folding into m, which then exports the
// sink's whole schema, zeros included.
func NewMetricsSink(m *Metrics) *MetricsSink {
	m.full = true
	return &MetricsSink{m: m, waves: map[int]*wavePhase{}, blockedSince: map[int]sim.Time{},
		storeSince: map[[3]int]sim.Time{}, restartSince: map[int]sim.Time{}, repairSince: map[int]sim.Time{},
		drainSince: map[[3]int]sim.Time{}, diedAt: map[uint64]sim.Time{}}
}

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
	m := s.m
	m.Tally[ev.Type]++
	switch ev.Type {
	case EvChannelBlocked:
		s.blockedSince[ev.Rank] = ev.T
	case EvChannelUnblocked:
		if t0, ok := s.blockedSince[ev.Rank]; ok {
			delete(s.blockedSince, ev.Rank)
			m.BlockedTime.Observe(ev.T - t0)
			m.BlockedNs[ev.Rank] += int64(ev.T - t0)
		}
	case EvMessageLogged:
		m.LoggedBytes += ev.Bytes
		m.ChannelBytes[[2]int32{int32(ev.Channel), int32(ev.Rank)}] += ev.Bytes
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
		m.ImageBytes += ev.Bytes
		if ev.Server >= 0 {
			m.ServerBytes[ev.Server] += ev.Bytes
		} else {
			// A node-local buffer store (no server index): account it to
			// its hierarchy level instead.
			m.LevelBytes[ev.Level] += ev.Bytes
		}
		if t0, ok := s.storeSince[[3]int{ev.Rank, ev.Wave, ev.Server}]; ok {
			delete(s.storeSince, [3]int{ev.Rank, ev.Wave, ev.Server})
			m.ImageStoreTime.Observe(ev.T - t0)
			if ev.Server >= 0 {
				m.ServerStoreNs[ev.Server] += int64(ev.T - t0)
			}
		}
	case EvLogShipEnd:
		m.LogShipBytes += ev.Bytes
	case EvWaveCommit:
		// A per-rank commit (uncoordinated checkpointing) closes no wave:
		// ranks number their checkpoints independently, so the entry mixes
		// unrelated ranks and is dropped unobserved.
		if wp, ok := s.waves[ev.Wave]; ok && ev.Rank < 0 && wp.firstCkpt >= 0 {
			m.WaveSpread.Observe(wp.lastCkpt - wp.firstCkpt)
			m.WaveTransfer.Observe(wp.lastDurable - wp.lastCkpt)
			m.WaveCycle.Observe(ev.T - wp.firstCkpt)
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
			m.RestartTime.Observe(ev.T - t0)
		}
	case EvProcFailed:
		s.repairSince[ev.Rank] = ev.T
	case EvRepairEnd:
		// The repaired world is a new generation, as after a restart:
		// waves the revoked one left open are re-executed.
		clear(s.waves)
		if t0, ok := s.repairSince[ev.Channel]; ok {
			delete(s.repairSince, ev.Channel)
			m.RepairLatency.Observe(ev.T - t0)
		}
	case EvDrainBegin:
		s.drainSince[[3]int{ev.Rank, ev.Wave, ev.Level}] = ev.T
	case EvDrainEnd:
		m.DrainBytes += ev.Bytes
		m.LevelBytes[ev.Level] += ev.Bytes
		if t0, ok := s.drainSince[[3]int{ev.Rank, ev.Wave, ev.Level}]; ok {
			delete(s.drainSince, [3]int{ev.Rank, ev.Wave, ev.Level})
			m.DrainTime.Observe(ev.T - t0)
		}
	case EvComponentDead, EvServerKilled:
		s.diedAt[ev.Span] = ev.T
	case EvHeartbeatTimeout:
		// A true detection's Cause is the death it detects; a false
		// suspicion (a live component exceeded the timeout) has none.
		if ev.Cause == 0 {
			m.FalseSuspicions++
		} else {
			m.DetectLatency.Observe(ev.T - s.diedAt[ev.Cause])
		}
	}
}
