// Package mlog implements uncoordinated checkpointing with pessimistic,
// receiver-based message logging — the alternative fault-tolerance family
// the paper positions coordinated checkpointing against (§2, and the
// group's own comparison in "Improved message logging versus improved
// coordinated checkpointing for fault tolerant MPI", Cluster 2004).
//
// Under the piecewise-deterministic assumption, receptions are the only
// non-deterministic events, so logging every received message to stable
// storage before delivering it makes a single process recoverable in
// isolation: no marker waves, no global rollback.  The costs are exactly
// the ones the paper cites — every message pays a synchronous round trip
// to the checkpoint server before delivery, which "decreases the
// performance in reliable environments, such as clusters" — and the
// benefit is that a failure rolls back one process, not the world.
//
// Mechanics:
//
//   - Senders stamp every payload with a per-pair protocol sequence
//     number and keep an unacknowledged-send buffer (volatile, hence part
//     of the checkpoint image); receivers acknowledge once the message is
//     safely logged, and retransmit-after-restart plus
//     duplicate-suppression by sequence number give exactly-once
//     delivery over the lossy restart boundary.
//   - Each process checkpoints independently on its own cadence; its image
//     plus the logs recorded since that image reconstruct it.
//   - Recovery restarts only the failed rank: it restores its image,
//     re-delivers the held-but-unlogged messages serialized inside the
//     image, replays the logged messages in their original arrival order,
//     and retransmits its unacknowledged sends; live peers are told to
//     retransmit theirs.
package mlog

import (
	"cmp"
	"fmt"
	"slices"

	"ftckpt/internal/core"
	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

// OpAck is the control opcode acknowledging that a message is logged.
const OpAck = 100

// Mlog is one process's message-logging protocol instance.
type Mlog struct {
	h   core.Host
	cad *core.Cadence

	wave    int
	sendSeq map[int]uint64 // next PSeq per destination
	ackSeq  map[int]uint64 // highest PSeq acknowledged per destination
	delUpTo map[int]uint64 // highest PSeq delivered (logged) per source
	nextSeq map[int]uint64 // highest PSeq accepted into the log pipeline
	// unacked holds the sends, by value (a copy of the header taken at
	// the send, sharing Data: read-only once sent), in send order across
	// destinations — one queue, so a peer costs no segment of its own.
	// An ack pops the acknowledged prefix; an acknowledged send behind an
	// older unacknowledged one waits in place, and ackSeq tells it apart.
	unacked sim.Queue[mpi.Packet]
	pending sim.Queue[*record] // accepted in order, waiting for the log store
	rec     [1]*mpi.Packet     // the one-record set accept ships
	// ooo holds records that overtook a gap (organic traffic racing a
	// retransmission after a peer restart); the retransmission fills the
	// gap and releases them in sequence.
	ooo map[int]map[uint64]*record
	// spare is the rest of the chunk keep carves records from.
	spare []record
	// img is the device state DeviceState encodes and sent the
	// unacknowledged sends its Unacked entries slice: both reused from one
	// checkpoint to the next, and emptied after each encoding.
	img  devState
	sent []mpi.Packet
}

// record is one pessimistic log record from accept to delivery: the
// packet, and whether the store that makes it durable has reached its
// quorum.  The record is its store's core.LogSink, so the Mlog keeps no
// handle on the store, which its host recycles once it has settled; and
// the record is a piece of a chunk (keep), so logging a message allocates
// a 36th of a chunk here.
type record struct {
	pkt    mpi.Packet
	m      *Mlog
	stored bool
}

// LogsStored: the record is on stable storage; deliver what that
// unblocks.
func (r *record) LogsStored() {
	r.stored = true
	r.m.drain()
}

// recChunk is how many records keep carves from one allocation: 36
// records of 112 bytes are 3.9 KB of a 4 KB malloc size class.  A chunk
// lives while the log store holds any of its records, and a rank's
// records leave the store a wave at a time, so a chunk that straddles two
// waves, and the rank's current one, hold dead or unused records.  At 64
// to a chunk that retention raised the peak live heap of BT.A NP=256
// under Mlog by half of what its records take (3.6 → 5.5 MB; peak RSS
// 32 → 37 MB, and 34 MB at 32 to a chunk).
const recChunk = 36

// keep copies a lent packet into the next record of the chunk: the record
// the pending queue, the log store and ooo hold.  The log store keeps it
// past delivery, so the copy is a Retain: the payload is shared.
func (m *Mlog) keep(p *mpi.Packet) *record {
	if len(m.spare) == 0 {
		m.spare = make([]record, recChunk)
	}
	r := &m.spare[0]
	m.spare = m.spare[1:]
	r.pkt, r.m = p.Retain(), m
	return r
}

// New builds an Mlog instance checkpointing every interval, staggered by
// rank so the uncoordinated checkpoints do not accidentally synchronize.
func New(h core.Host, interval sim.Time) *Mlog {
	m := &Mlog{
		h:       h,
		sendSeq: map[int]uint64{},
		ackSeq:  map[int]uint64{},
		delUpTo: map[int]uint64{},
		nextSeq: map[int]uint64{},
		ooo:     map[int]map[uint64]*record{},
	}
	stagger := interval * sim.Time(h.Rank()) / sim.Time(h.Size())
	m.cad = core.Independent(h, h.Obs(), h.Rank(), interval, stagger, m.checkpoint)
	return m
}

// Start starts the cadence and retransmits what our own restart lost.
func (m *Mlog) Start() {
	m.cad.Start()
	m.retransmitAll()
}

// Stop stops the cadence.
func (m *Mlog) Stop() { m.cad.Stop() }

// checkpoint takes an independent local checkpoint: no coordination, no
// markers — the image alone (with the protocol state inside) plus later
// logs make this process recoverable.  It returns the image's wave.
func (m *Mlog) checkpoint() int {
	m.wave++
	w := m.wave
	now := m.h.Now()
	cs := m.h.Obs().NextSpan()
	m.h.Obs().Emit(obs.Event{Type: obs.EvLocalCkptBegin, T: now, Rank: m.h.Rank(), Wave: w, Channel: -1, Node: -1, Server: -1, Span: cs})
	m.h.Obs().Emit(obs.Event{Type: obs.EvLocalCkptEnd, T: now, Rank: m.h.Rank(), Wave: w, Channel: -1, Node: -1, Server: -1, Span: cs})
	m.h.TakeCheckpoint(w, m.DeviceState(), func() {
		m.cad.Durable()
		// Logs older than this image are no longer needed.
		m.h.CommitWave(w)
	})
	return w
}

// OutPayload stamps and buffers every outgoing payload.  unacked keeps
// it for retransmission after the receiver consumed it, so it is a
// Retain: the payload leaves shared, and no receiver recycles it.
func (m *Mlog) OutPayload(p *mpi.Packet) bool {
	m.sendSeq[p.Dst]++
	p.PSeq = m.sendSeq[p.Dst]
	m.unacked.Push(p.Retain())
	return true
}

// InPacket logs payloads before delivery and consumes protocol acks.
func (m *Mlog) InPacket(p *mpi.Packet) bool {
	switch p.Kind {
	case mpi.KindControl:
		if p.Tag != OpAck {
			panic(fmt.Sprintf("mlog: unknown control opcode %d", p.Tag))
		}
		m.onAck(p.Src, p.PSeq)
		return false
	case mpi.KindMarker:
		panic("mlog: unexpected marker (no coordinated waves)")
	default:
		if p.Src < 0 {
			return true // service traffic is not application state
		}
		m.onPayload(p)
		return false
	}
}

// onPayload accepts payloads strictly in per-pair sequence order.  p is
// lent (mpi.Filter): what it accepts or holds is a record of its own.
func (m *Mlog) onPayload(p *mpi.Packet) {
	switch {
	case p.PSeq <= m.delUpTo[p.Src]:
		// Duplicate of a logged message (retransmission after the ack
		// was lost): drop, but re-acknowledge.
		m.ack(p.Src, p.PSeq)
	case p.PSeq <= m.nextSeq[p.Src]:
		// Duplicate of a message still in the log pipeline: drop; the
		// ack follows when its log is stored.
	case p.PSeq == m.nextSeq[p.Src]+1:
		m.accept(m.keep(p))
		// The gap may have released out-of-order successors.  Only a peer
		// restart makes any, and a source leaves ooo once its last is
		// released, so the usual payload costs one length check here.
		if len(m.ooo) == 0 {
			return
		}
		waiting := m.ooo[p.Src]
		for len(waiting) > 0 {
			r, ok := waiting[m.nextSeq[p.Src]+1]
			if !ok {
				return
			}
			delete(waiting, r.pkt.PSeq)
			m.accept(r)
		}
		delete(m.ooo, p.Src)
	default:
		// Overtook a gap (organic traffic racing a retransmission after
		// a restart): hold until the gap fills.
		if m.ooo[p.Src] == nil {
			m.ooo[p.Src] = map[uint64]*record{}
		}
		m.ooo[p.Src][p.PSeq] = m.keep(p)
	}
}

// accept enqueues an in-sequence record into the pessimistic log
// pipeline: delivery waits until the log is on stable storage, which
// keeps the record's packet.
func (m *Mlog) accept(r *record) {
	m.nextSeq[r.pkt.Src] = r.pkt.PSeq
	m.rec[0] = &r.pkt
	m.pending.Push(r)
	m.h.ShipLogs(m.wave, m.rec[:], r)
}

// drain delivers the stored prefix of the pending queue, preserving the
// original arrival order.
func (m *Mlog) drain() {
	for m.pending.Len() > 0 && m.pending.Front().stored {
		m.deliver(&m.pending.Pop().pkt)
	}
}

func (m *Mlog) deliver(p *mpi.Packet) {
	m.delUpTo[p.Src] = p.PSeq
	m.h.Obs().Emit(obs.Event{Type: obs.EvMessageLogged, T: m.h.Now(), Rank: m.h.Rank(), Wave: m.wave, Channel: p.Src, Node: -1, Server: -1, Bytes: p.PayloadSize(), Seq: p.PSeq, Span: m.h.Obs().NextSpan()})
	m.h.Engine().Deliver(p)
	m.ack(p.Src, p.PSeq)
}

func (m *Mlog) ack(dst int, seq uint64) {
	m.h.Wire(dst, mpi.Packet{Kind: mpi.KindControl, Tag: OpAck, PSeq: seq})
}

// onAck records an acknowledgement (cumulative: logging is FIFO per
// pair) and drops the acknowledged prefix of unacked.
func (m *Mlog) onAck(from int, seq uint64) {
	m.ackSeq[from] = max(m.ackSeq[from], seq)
	for m.unacked.Len() > 0 && m.acked(m.unacked.Front()) {
		m.unacked.Pop()
	}
}

// acked reports whether the send p was acknowledged.
func (m *Mlog) acked(p mpi.Packet) bool { return p.PSeq <= m.ackSeq[p.Dst] }

// PeerRestarted retransmits the unacknowledged messages to a recovered
// peer — in-flight messages died with its channels.
func (m *Mlog) PeerRestarted(rank int) { m.retransmit(rank) }

// retransmit re-sends every unacknowledged message to dst, oldest first.
// Wire takes the packet by value, so the one in unacked stays as it is.
func (m *Mlog) retransmit(dst int) {
	for i, n := 0, m.unacked.Len(); i < n; i++ {
		if p := m.unacked.At(i); p.Dst == dst && !m.acked(p) {
			m.h.Wire(dst, p)
		}
	}
}

// retransmitAll re-sends every unacknowledged message, destinations in
// ascending order: the wire order is part of the run.
func (m *Mlog) retransmitAll() {
	for _, dst := range sortedKeys(m.sendSeq) {
		m.retransmit(dst)
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// devState is the protocol state stored inside images.
type devState struct {
	Wave    int
	SendSeq map[int]uint64
	DelUpTo map[int]uint64
	// Unacked has one entry per destination ever sent to, in ascending
	// Dst, empty once everything is acknowledged: the entry is part of the
	// encoding, and so of the image size.  A slice of {Dst, Pkts} encodes
	// as a map from Dst would, a length and then key and value per entry.
	Unacked []unackedTo
	Pending []mpi.Packet // arrived before the snapshot, log not yet stored
}

// unackedTo is one destination's unacknowledged sends, in send order.
type unackedTo struct {
	Dst  int
	Pkts []mpi.Packet
}

// DeviceState serializes the protocol state into the image.  It builds no
// map: the sends are grouped by destination with a stable sort, and every
// slice it fills is reused at the next checkpoint, so the image's one
// allocation here is the encoding, sized exactly.
func (m *Mlog) DeviceState() []byte {
	ds := &m.img
	ds.Wave, ds.SendSeq, ds.DelUpTo = m.wave, m.sendSeq, m.delUpTo
	sent := m.sent[:0]
	for i := 0; i < m.unacked.Len(); i++ {
		if p := m.unacked.At(i); !m.acked(p) {
			sent = append(sent, p)
		}
	}
	slices.SortStableFunc(sent, func(x, y mpi.Packet) int { return cmp.Compare(x.Dst, y.Dst) })
	for dst := range m.sendSeq {
		ds.Unacked = append(ds.Unacked, unackedTo{Dst: dst})
	}
	slices.SortFunc(ds.Unacked, func(x, y unackedTo) int { return cmp.Compare(x.Dst, y.Dst) })
	rest := sent
	for i := range ds.Unacked {
		n := 0
		for n < len(rest) && rest[n].Dst == ds.Unacked[i].Dst {
			n++
		}
		ds.Unacked[i].Pkts, rest = rest[:n:n], rest[n:]
	}
	if len(rest) > 0 {
		panic(fmt.Sprintf("mlog: rank %d: unacknowledged send to %d, a destination it never sent to", m.h.Rank(), rest[0].Dst))
	}
	for i := 0; i < m.pending.Len(); i++ {
		ds.Pending = append(ds.Pending, m.pending.At(i).pkt)
	}
	b := mpi.AppendState(make([]byte, 0, mpi.StateSize(ds)), ds)
	// Keep the storage, not the packets: the image has their bytes.
	clear(sent)
	clear(ds.Unacked)
	clear(ds.Pending)
	m.sent = sent[:0]
	*ds = devState{Unacked: ds.Unacked[:0], Pending: ds.Pending[:0]}
	return b
}

// Restore loads the image state and reconstructs the reception history:
// held messages from inside the image first (they arrived before every
// logged message), then the stored logs in arrival order.  Start will
// retransmit the unacknowledged sends.
func (m *Mlog) Restore(dev []byte, logs []*mpi.Packet, lastWave int) {
	var ds devState
	if len(dev) > 0 {
		if err := mpi.LoadState(dev, &ds); err != nil {
			panic(fmt.Sprintf("mlog: decoding device state: %v", err))
		}
	}
	m.wave = ds.Wave
	if m.sendSeq = ds.SendSeq; m.sendSeq == nil {
		m.sendSeq = map[int]uint64{}
	}
	if m.delUpTo = ds.DelUpTo; m.delUpTo == nil {
		m.delUpTo = map[int]uint64{}
	}
	m.ackSeq = map[int]uint64{}
	m.unacked.Reset()
	for _, u := range ds.Unacked {
		for _, p := range u.Pkts {
			m.unacked.Push(p)
		}
	}
	m.pending = sim.Queue[*record]{}
	m.ooo = map[int]map[uint64]*record{}
	for i := range ds.Pending {
		// Already persisted by the image itself: deliver directly.
		m.deliver(&ds.Pending[i])
	}
	for _, p := range logs {
		if p.PSeq <= m.delUpTo[p.Src] {
			continue // also present in Pending (stored twice across the snapshot)
		}
		m.delUpTo[p.Src] = p.PSeq
		m.h.Obs().Emit(obs.Event{Type: obs.EvMessageReplayed, T: m.h.Now(), Rank: m.h.Rank(),
			Wave: m.wave, Channel: p.Src, Node: -1, Server: -1, Bytes: p.PayloadSize(), Seq: p.PSeq,
			Span: m.h.Obs().NextSpan()})
		m.h.Engine().Deliver(p)
	}
	m.nextSeq = map[int]uint64{}
	for src, v := range m.delUpTo {
		m.nextSeq[src] = v
	}
}

var _ core.Protocol = (*Mlog)(nil)
var _ core.PeerAware = (*Mlog)(nil)
