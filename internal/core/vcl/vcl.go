// Package vcl implements the paper's non-blocking coordinated
// checkpointing protocol — MPICH-Vcl, a direct implementation of the
// Chandy–Lamport distributed snapshot algorithm (§3, §4.1).
//
// A dedicated checkpoint scheduler regularly sends markers to every MPI
// process.  When a process receives its first marker of a wave (from the
// scheduler or from a peer), it records its local state immediately — the
// fork-and-pipeline checkpoint — sends a marker on every outgoing channel,
// and keeps computing.  Every payload received on a channel after the
// local snapshot and before that channel's marker is logged by the
// communication daemon as the channel's state and shipped to the
// checkpoint server.  The process acknowledges the scheduler once its
// image and logs are stored and every peer marker has arrived; the
// scheduler commits the wave after collecting every acknowledgement.
//
// Computation is never interrupted; in exchange, every message pays the
// daemon path (modelled by the engine's service profile) and a restart
// replays the logged channel state before new traffic.
package vcl

import (
	"fmt"

	"ftckpt/internal/core"
	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

// Vcl is one process's non-blocking protocol instance.
type Vcl struct {
	h core.Host

	inWave      bool
	wave        int
	markerFrom  core.RankSet
	markers     int
	logs        []*mpi.Packet
	imageStored bool
	logsStored  bool
	ckptSpan    uint64 // causal span of the wave's local snapshot
}

// New builds a Vcl process instance.
func New(h core.Host) *Vcl {
	return &Vcl{h: h, markerFrom: core.NewRankSet(h.Size())}
}

// Start is a no-op: waves are driven by the scheduler.
func (v *Vcl) Start() {}

// Stop is a no-op: the process holds no timers.
func (v *Vcl) Stop() {}

// OutPayload never blocks: the non-blocking protocol lets all traffic
// flow during a wave.
func (v *Vcl) OutPayload(*mpi.Packet) bool { return true }

// InPacket consumes markers and logs in-transit payloads.
func (v *Vcl) InPacket(pkt *mpi.Packet) bool {
	switch pkt.Kind {
	case mpi.KindMarker:
		v.onMarker(pkt.Src, pkt.Wave, pkt.SpanID)
		return false
	case mpi.KindControl:
		panic(fmt.Sprintf("vcl: unexpected control packet at process: %v", pkt))
	default:
		if v.inWave && pkt.Src >= 0 && !v.markerFrom.Has(pkt.Src) {
			// Received after the local snapshot, before the sender's
			// marker: this is channel state (message m in Fig. 1).  The
			// packet is lent (mpi.Filter), so the log holds a copy, which
			// shares Data with the one the matching engine keeps.
			v.logs = append(v.logs, pkt.Clone())
			v.h.Obs().Emit(obs.Event{Type: obs.EvMessageLogged, T: v.h.Now(), Rank: v.h.Rank(), Wave: v.wave, Channel: pkt.Src, Node: -1, Server: -1, Bytes: pkt.PayloadSize(), Span: v.h.Obs().NextSpan(), Cause: v.ckptSpan})
		}
		return true
	}
}

func (v *Vcl) onMarker(src, w int, spanID uint64) {
	if !v.inWave {
		if w <= v.wave {
			return // stale
		}
		v.beginWave(w, spanID)
	}
	if w != v.wave {
		panic(fmt.Sprintf("vcl: rank %d in wave %d got marker for wave %d", v.h.Rank(), v.wave, w))
	}
	if src == mpi.SchedulerID || src < 0 {
		return // the scheduler's marker only triggers the wave
	}
	if v.markerFrom.Has(src) {
		return
	}
	v.markerFrom.Set(src)
	v.markers++
	v.h.Obs().Emit(obs.Event{Type: obs.EvMarkerRecv, T: v.h.Now(), Rank: v.h.Rank(), Wave: w, Channel: src, Node: -1, Server: -1, Span: spanID})
	if v.markers == v.h.Size()-1 {
		v.shipLogs()
	}
}

// beginWave takes the local snapshot immediately and floods markers —
// computation continues.  cause is the flight span of the marker that
// triggered the wave (scheduler's or a peer's).
func (v *Vcl) beginWave(w int, cause uint64) {
	v.inWave = true
	v.wave = w
	v.markers = 0
	v.imageStored = false
	v.logsStored = false
	v.logs = nil
	v.markerFrom.Clear()
	now := v.h.Now()
	hub := v.h.Obs()
	v.ckptSpan = hub.NextSpan()
	hub.Emit(obs.Event{Type: obs.EvLocalCkptBegin, T: now, Rank: v.h.Rank(), Wave: w, Channel: -1, Node: -1, Server: -1, Span: v.ckptSpan, Cause: cause})
	v.h.TakeCheckpoint(w, nil, func() {
		v.imageStored = true
		v.maybeAck(w)
	})
	// The fork is immediate — computation never stops under Vcl, so the
	// snapshot begin/end collapse to the same virtual instant.
	hub.Emit(obs.Event{Type: obs.EvLocalCkptEnd, T: now, Rank: v.h.Rank(), Wave: w, Channel: -1, Node: -1, Server: -1, Span: v.ckptSpan})
	core.Flood(v.h, w, v.ckptSpan)
	if v.h.Size() == 1 {
		v.shipLogs()
	}
}

// shipLogs runs once every peer marker has arrived: the channel state is
// complete and goes to the checkpoint server over the message connection.
func (v *Vcl) shipLogs() {
	w := v.wave
	v.h.ShipLogs(w, v.logs, core.LogSinkFunc(func() {
		v.logsStored = true
		v.maybeAck(w)
	}))
}

// maybeAck acknowledges the scheduler once both transfers finished and the
// wave's markers are all in.
func (v *Vcl) maybeAck(w int) {
	if !v.inWave || v.wave != w {
		return // a restart reset the wave meanwhile
	}
	if v.imageStored && v.logsStored && v.markers == v.h.Size()-1 {
		v.inWave = false
		v.h.Wire(mpi.SchedulerID, core.Done(w))
	}
}

// DeviceState is empty: Vcl's channel state lives on the server as logs.
func (v *Vcl) DeviceState() []byte { return nil }

// Restore replays the stored channel-state messages into the fresh engine
// before any new traffic, in stored order (per-channel FIFO preserved).
func (v *Vcl) Restore(dev []byte, logs []*mpi.Packet, lastWave int) {
	v.inWave = false
	v.ckptSpan = 0
	v.wave = lastWave
	v.logs = nil
	v.markers = 0
	v.markerFrom.Clear()
	for _, pkt := range logs {
		v.h.Obs().Emit(obs.Event{Type: obs.EvMessageReplayed, T: v.h.Now(), Rank: v.h.Rank(),
			Wave: lastWave, Channel: pkt.Src, Node: -1, Server: -1, Bytes: pkt.PayloadSize(),
			Span: v.h.Obs().NextSpan()})
		v.h.Engine().Deliver(pkt)
	}
}

var _ core.Protocol = (*Vcl)(nil)

// Scheduler is the dedicated checkpoint scheduler of the MPICH-V runtime:
// the only entity that initiates checkpoint waves.  It is an event-driven
// service bound to the mpi.SchedulerID endpoint.
type Scheduler struct {
	fab  *mpi.Fabric
	size int
	k    *sim.Kernel
	cad  *core.Cadence

	wave   int
	acks   int
	active bool

	// Obs, when set, receives the scheduler's marker-broadcast events
	// (Rank = mpi.SchedulerID).
	Obs *obs.Hub

	// OnCommit is invoked with each committed wave number (wired to the
	// runtime's registry).
	OnCommit func(wave int)
}

// NewScheduler places the scheduler on a node and binds its endpoint.
func NewScheduler(k *sim.Kernel, fab *mpi.Fabric, size, node int, interval sim.Time) *Scheduler {
	s := &Scheduler{fab: fab, size: size, k: k}
	s.cad = core.Coordinated(k, interval, s.initiate)
	fab.Place(mpi.SchedulerID, node)
	fab.Bind(mpi.SchedulerID, s.onPacket)
	return s
}

// Start arms the first wave timeout.
func (s *Scheduler) Start(lastWave int) {
	s.wave = lastWave
	s.acks = 0
	s.active = true
	s.cad.Start()
}

// Stop cancels the pending timeout (job end or restart in progress).
func (s *Scheduler) Stop() {
	s.active = false
	s.cad.Stop()
}

func (s *Scheduler) initiate() int {
	s.wave++
	s.acks = 0
	mk := core.Marker(s.wave)
	mk.SpanID = core.MarkerEvents(s.Obs, s.k.Now(), mpi.SchedulerID, s.size, s.wave, 0)
	s.fab.Flood(mpi.SchedulerID, 0, s.size, &mk)
	return s.wave
}

func (s *Scheduler) onPacket(p *mpi.Packet) {
	if !s.active || p.Kind != mpi.KindControl || p.Tag != core.OpCkptDone {
		return
	}
	if p.Wave != s.wave {
		return // late ack from an aborted wave
	}
	s.acks++
	if s.acks == s.size {
		if s.OnCommit != nil {
			s.OnCommit(s.wave)
		}
		s.cad.Durable()
	}
}
