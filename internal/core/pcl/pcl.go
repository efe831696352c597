// Package pcl implements the paper's blocking coordinated checkpointing
// protocol — the new MPICH2 implementation the paper introduces (§3, §4.2).
//
// Wave lifecycle, exactly as described:
//
//  1. Rank 0 starts a wave on a timeout, switches to checkpointing and
//     sends markers to every other process.  Any process receiving its
//     first marker of the wave does the same.
//  2. After sending its markers a process sends no payload on any channel
//     until it has taken its checkpoint: posted sends are delayed (the
//     ft-sock request-post hook / the Nemesis "stopper" request).  They
//     remain in process memory and are therefore stored inside the image.
//  3. After receiving a peer's marker, payloads subsequently arriving from
//     that peer are moved to a delayed-receive queue (the Nemesis delayed
//     queue) instead of being matched.
//  4. Once markers from every other process have been received — i.e. all
//     channels are flushed — the process checkpoints (fork), releases the
//     delayed sends and receives, resumes computing, and the image
//     transfer proceeds in the background, competing with the resumed
//     traffic for the network.
//  5. Each process reports to rank 0 when its image is stored; rank 0 then
//     commits the wave and re-arms the timeout ("the timeout for the next
//     checkpoint wave is set as soon as every process has transferred its
//     image").
//
// On restart, delayed sends found in the image are emitted again and the
// delayed-receive queue is discarded (§4.2 Nemesis): its packets were sent
// after their senders' snapshots and will be regenerated.
package pcl

import (
	"fmt"

	"ftckpt/internal/core"
	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

// Pcl is one process's blocking-protocol instance.  Rank 0 additionally
// acts as the wave coordinator — the paper explicitly replaces MPICH-V's
// dedicated checkpoint scheduler with the rank-0 MPI process.
type Pcl struct {
	h   core.Host
	cad *core.Cadence // ticks at rank 0 only

	checkpointing bool
	wave          int // current wave while checkpointing, else last entered
	markerFrom    []bool
	markers       int
	delayedSend   []*mpi.Packet
	delayedRecv   []*mpi.Packet

	// Causal spans of the wave in progress: the local-checkpoint span and
	// the freeze (blocked-send) window it causes.
	ckptSpan   uint64
	freezeSpan uint64

	done int // OpCkptDone count of the wave (rank 0 only)
}

// New builds a Pcl instance with the given time between checkpoint waves.
func New(h core.Host, interval sim.Time) *Pcl {
	p := &Pcl{h: h, markerFrom: make([]bool, h.Size())}
	if h.Rank() != 0 {
		interval = 0 // only the coordinator starts waves
	}
	p.cad = core.Coordinated(h, interval, func() int { p.enterWave(p.wave+1, 0); return p.wave })
	return p
}

// Start re-emits delayed sends restored from an image and starts the cadence.
func (p *Pcl) Start() {
	for _, pkt := range p.delayedSend {
		p.h.Wire(pkt.Dst, *pkt)
	}
	p.delayedSend = nil
	p.cad.Start()
}

// Stop stops the coordinator's cadence.
func (p *Pcl) Stop() { p.cad.Stop() }

// enterWave switches the process to checkpointing and floods markers.
// cause is the flight span of the marker that pulled this process into the
// wave (0 for the coordinator's timer-driven entry).
func (p *Pcl) enterWave(w int, cause uint64) {
	p.checkpointing = true
	p.wave = w
	p.markers = 0
	for i := range p.markerFrom {
		p.markerFrom[i] = false
	}
	now := p.h.Now()
	hub := p.h.Obs()
	p.ckptSpan = hub.NextSpan()
	hub.Emit(obs.Event{Type: obs.EvLocalCkptBegin, T: now, Rank: p.h.Rank(), Wave: w, Channel: -1, Node: -1, Server: -1, Span: p.ckptSpan, Cause: cause})
	// The send gate is closed until the local checkpoint: the per-rank
	// blocked-send span the paper's flush-straggle analysis measures.
	p.freezeSpan = hub.NextSpan()
	hub.Emit(obs.Event{Type: obs.EvChannelBlocked, T: now, Rank: p.h.Rank(), Wave: w, Channel: -1, Node: -1, Server: -1, Span: p.freezeSpan, Cause: p.ckptSpan})
	for dst := 0; dst < p.h.Size(); dst++ {
		if dst != p.h.Rank() {
			ms := hub.NextSpan()
			hub.Emit(obs.Event{Type: obs.EvMarkerSent, T: now, Rank: p.h.Rank(), Wave: w, Channel: dst, Node: -1, Server: -1, Span: ms, Cause: p.ckptSpan})
			mk := core.Marker(w)
			mk.SpanID = ms
			p.h.Wire(dst, mk)
		}
	}
	if p.markers == p.h.Size()-1 { // single-process job
		p.takeCheckpoint()
	}
}

// OutPayload delays every payload posted while the process is
// checkpointing: markers were already sent on all channels, so any payload
// must wait for the local checkpoint.  The packet is lent (mpi.Filter), so
// the queue holds a copy.
func (p *Pcl) OutPayload(pkt *mpi.Packet) bool {
	if p.checkpointing {
		p.delayedSend = append(p.delayedSend, pkt.Clone())
		p.h.Obs().Emit(obs.Event{Type: obs.EvSendDelayed, T: p.h.Now(), Rank: p.h.Rank(), Wave: p.wave, Channel: pkt.Dst, Node: -1, Server: -1, Bytes: pkt.PayloadSize(), Cause: p.freezeSpan})
		return false
	}
	return true
}

// InPacket consumes markers and control packets and holds payloads from
// flushed channels.  The packet is lent (mpi.Filter), so the delayed
// receive queue holds a copy.
func (p *Pcl) InPacket(pkt *mpi.Packet) bool {
	switch pkt.Kind {
	case mpi.KindMarker:
		p.onMarker(pkt.Src, pkt.Wave, pkt.SpanID)
		return false
	case mpi.KindControl:
		p.onControl(pkt)
		return false
	default:
		if p.checkpointing && pkt.Src >= 0 && p.markerFrom[pkt.Src] {
			p.delayedRecv = append(p.delayedRecv, pkt.Clone())
			p.h.Obs().Emit(obs.Event{Type: obs.EvRecvDelayed, T: p.h.Now(), Rank: p.h.Rank(), Wave: p.wave, Channel: pkt.Src, Node: -1, Server: -1, Bytes: pkt.PayloadSize(), Cause: p.freezeSpan})
			return false
		}
		return true
	}
}

func (p *Pcl) onMarker(src, w int, spanID uint64) {
	if !p.checkpointing {
		if w <= p.wave {
			return // stale marker from an already-completed wave
		}
		p.enterWave(w, spanID)
	}
	if w != p.wave {
		panic(fmt.Sprintf("pcl: rank %d in wave %d got marker for wave %d", p.h.Rank(), p.wave, w))
	}
	if p.markerFrom[src] {
		return
	}
	p.markerFrom[src] = true
	p.markers++
	p.h.Obs().Emit(obs.Event{Type: obs.EvMarkerRecv, T: p.h.Now(), Rank: p.h.Rank(), Wave: w, Channel: src, Node: -1, Server: -1, Span: spanID})
	if p.markers == p.h.Size()-1 {
		p.takeCheckpoint()
	}
}

// takeCheckpoint runs once all channels are flushed: capture the image
// (with the delayed sends inside), then unfreeze.
func (p *Pcl) takeCheckpoint() {
	w := p.wave
	p.h.TakeCheckpoint(w, p.DeviceState(), func() {
		p.h.Wire(0, core.Done(w))
	})
	p.checkpointing = false
	now := p.h.Now()
	p.h.Obs().Emit(obs.Event{Type: obs.EvLocalCkptEnd, T: now, Rank: p.h.Rank(), Wave: w, Channel: -1, Node: -1, Server: -1, Span: p.ckptSpan})
	p.h.Obs().Emit(obs.Event{Type: obs.EvChannelUnblocked, T: now, Rank: p.h.Rank(), Wave: w, Channel: -1, Node: -1, Server: -1, Span: p.freezeSpan, Cause: p.ckptSpan})
	// Release delayed sends in posting order.
	sends := p.delayedSend
	p.delayedSend = nil
	for _, pkt := range sends {
		p.h.Wire(pkt.Dst, *pkt)
	}
	// Handle the delayed receive queue before any newer packet.
	recvs := p.delayedRecv
	p.delayedRecv = nil
	for _, pkt := range recvs {
		p.h.Engine().Deliver(pkt)
	}
}

// onControl handles OpCkptDone at the coordinator.
func (p *Pcl) onControl(pkt *mpi.Packet) {
	if pkt.Tag != core.OpCkptDone {
		panic(fmt.Sprintf("pcl: unknown control opcode %d", pkt.Tag))
	}
	if p.h.Rank() != 0 {
		panic("pcl: OpCkptDone at non-coordinator")
	}
	if pkt.Wave != p.wave {
		return // from a wave aborted by a restart
	}
	p.done++
	if p.done == p.h.Size() {
		p.done = 0
		p.h.CommitWave(p.wave)
		p.cad.Durable()
	}
}

// devState is the protocol state stored in images.
type devState struct {
	Wave  int
	Sends []*mpi.Packet
}

// DeviceState serializes the delayed send queue (the paper: delayed
// messages "still in the process memory are automatically stored in the
// checkpoint").
func (p *Pcl) DeviceState() []byte {
	return mpi.AppendState(nil, &devState{Wave: p.wave, Sends: p.delayedSend})
}

// Restore loads image state: the delayed sends will be re-emitted by
// Start; the delayed receive queue is discarded by construction (it was
// never serialized).
func (p *Pcl) Restore(dev []byte, logs []*mpi.Packet, lastWave int) {
	if len(logs) != 0 {
		panic("pcl: blocking protocol has no channel state to replay")
	}
	var ds devState
	if len(dev) > 0 {
		if err := mpi.LoadState(dev, &ds); err != nil {
			panic(fmt.Sprintf("pcl: decoding device state: %v", err))
		}
	}
	p.checkpointing = false
	p.ckptSpan, p.freezeSpan = 0, 0
	p.wave = lastWave
	p.delayedSend = ds.Sends
	p.delayedRecv = nil
	p.markers = 0
	p.done = 0
	for i := range p.markerFrom {
		p.markerFrom[i] = false
	}
}

var _ core.Protocol = (*Pcl)(nil)
