package mpi

import (
	"fmt"
	"slices"

	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

// Filter is the fault-tolerance protocol's view of the device, mirroring
// the paper's hook points.  A nil-equivalent pass-through is used when
// checkpointing is disabled.
//
// OutPayload is consulted before a payload packet reaches the wire; the
// protocol returns false to hold it (Pcl's delayed sends) and later emits
// it through its host (core.Host.Wire).  InPacket sees every packet
// arriving from the wire; the protocol returns false to consume it
// (markers, control) or to hold it (Pcl's delayed receive queue —
// re-injected later with Engine.Deliver), and true to let it reach the
// matching engine (it may also keep it, as Vcl's logging does).
//
// Both hooks are lent their packet for the length of the call, whatever
// its kind: OutPayload's is the engine's send buffer, and InPacket's is the
// WireMsg rebuilt into the engine's receive buffer, which the next arrival
// reuses.  A protocol that holds a packet past the call copies it with
// Packet.Clone or Packet.Retain; the copy shares Data, which is shared and
// read-only once sent unless owned, and both calls make it shared, so no
// receiver recycles what the copy holds.  Deliver copies the packet it is
// given, so a protocol may pass the lent one straight on.
type Filter interface {
	OutPayload(p *Packet) bool
	InPacket(p *Packet) bool
}

// PassFilter is the no-protocol filter: everything passes.
type PassFilter struct{}

// OutPayload always passes.
func (PassFilter) OutPayload(*Packet) bool { return true }

// InPacket always passes.
func (PassFilter) InPacket(*Packet) bool { return true }

// Engine is one MPI process's communication engine: eager sends, blocking
// receives with (source, tag) matching, and resumable collectives.  All
// methods except HandleWire, Deliver, CaptureImage and RestoreImage must
// be called from the process's own LP.
type Engine struct {
	rank, size int
	lp         *sim.Proc
	prof       Profile
	fab        *Fabric
	filter     Filter
	cond       *sim.Cond

	// inbox holds wire messages not yet run through the filter: with a
	// synchronous profile (MPICH2-style progress engine) packets arriving
	// while the application computes wait here until the next MPI call.
	inbox      sim.Queue[WireMsg]
	daemonBusy sim.Time
	// admitLane carries packets through the daemon-service delay:
	// daemonBusy never decreases, so the delayed admits are a lane.
	admitLane *sim.Lane[admitRec]
	// in is the Packet a message is rebuilt into for InPacket, and out the
	// one send builds for OutPayload: both lent for the call.
	in, out Packet

	// unexpected holds delivered payloads by value until a receive
	// matches them.
	unexpected []Packet
	opDepth    int
	waiting    bool
	waitSrc    int
	waitTag    int

	collSeq  uint64
	coll     *CollState
	collFree *CollState // recycled by endColl, reused by beginColl
	closed   bool
	steal    float64 // background checkpoint work stealing compute speed

	// ULFM error-reporting mode (see ulfm.go): failed marks peers known
	// dead, revoked aborts every blocking operation, epoch counts
	// communicator incarnations so stale in-pipeline packets are dropped.
	ft      bool
	revoked bool
	failed  []bool
	epoch   int

	// recvBlocked receives blocked-receive time observations
	// ("mpi.recv_blocked") once SetMetrics names a registry.
	recvBlocked obs.HistHandle
	// hub, when set, receives application-layer events (EmitFT); nil-safe.
	hub *obs.Hub
}

// NewEngine builds the engine for rank running on LP lp over fabric fab.
// The engine binds itself as the fabric handler for rank.
func NewEngine(rank, size int, lp *sim.Proc, prof Profile, fab *Fabric) *Engine {
	if size <= 0 || rank < 0 || rank >= size {
		panic(fmt.Sprintf("mpi: invalid rank %d of %d", rank, size))
	}
	e := &Engine{
		rank: rank, size: size, lp: lp, prof: prof, fab: fab,
		filter: PassFilter{},
		cond:   sim.NewCond(lp.Kernel()),
	}
	e.admitLane = sim.NewLane(lp.Kernel(), e.admitEvent)
	fab.BindWire(rank, e.HandleWire)
	return e
}

// Rank returns this process's rank.
func (e *Engine) Rank() int { return e.rank }

// Size returns the number of MPI processes.
func (e *Engine) Size() int { return e.size }

// Now returns the current virtual time.
func (e *Engine) Now() sim.Time { return e.lp.Now() }

// SetMetrics attaches the observability registry the engine reports
// blocked-receive durations to (nil disables).
func (e *Engine) SetMetrics(m *obs.Metrics) { e.recvBlocked = m.HistHandle("mpi.recv_blocked") }

// SetObs attaches the observability hub application-layer events are
// published through (nil disables).
func (e *Engine) SetObs(h *obs.Hub) { e.hub = h }

// EmitFT publishes an application-layer event (e.g. an in-memory partner
// checkpoint) through the runtime's hub, stamping the current virtual
// time.  No-op when no hub is attached.
func (e *Engine) EmitFT(ev obs.Event) {
	if e.hub == nil {
		return
	}
	ev.T = e.lp.Now()
	e.hub.Emit(ev)
}

// SetFilter installs the fault-tolerance protocol filter.
func (e *Engine) SetFilter(f Filter) {
	if f == nil {
		f = PassFilter{}
	}
	e.filter = f
}

// Compute consumes d of virtual CPU time.  It is not an MPI call: with a
// synchronous profile, protocol packets arriving meanwhile wait for the
// next MPI call, exactly as with MPICH2's in-call progress engine.  While
// background checkpoint work is in flight (AddSteal), compute runs slower.
func (e *Engine) Compute(d sim.Time) {
	if e.steal > 0 {
		d = sim.Time(float64(d) * (1 + e.steal))
	}
	e.lp.Advance(d)
}

// AddSteal registers background work (an in-flight checkpoint transfer)
// stealing a fraction of the process's compute speed; SubSteal removes it.
func (e *Engine) AddSteal(f float64) { e.steal += f }

// SubSteal removes previously registered background work.
func (e *Engine) SubSteal(f float64) {
	e.steal -= f
	if e.steal < 0 {
		e.steal = 0
	}
}

// --- wire-side path (event context) -----------------------------------

// HandleWire accepts a message from the fabric (Fabric.BindWire).  It
// applies the daemon service time (store-and-forward, preserving order) if
// the profile has one, then either processes the message immediately
// (asynchronous daemon, or the application is inside an MPI call) or
// defers it to the inbox.  A closed engine drops it.
func (e *Engine) HandleWire(m WireMsg) {
	if e.closed {
		e.fab.drop(m)
		return
	}
	if svc := e.prof.daemonService(m.payloadSize()); svc > 0 {
		now := e.lp.Now()
		ready := e.daemonBusy
		if ready < now {
			ready = now
		}
		ready += svc
		e.daemonBusy = ready
		e.admitLane.At(ready, admitRec{m, e.epoch})
		return
	}
	e.admit(m)
}

// admitRec carries a message through the daemon-service delay, by value in
// the admit lane.
type admitRec struct {
	m WireMsg
	// epoch is the communicator incarnation the packet arrived in; if the
	// engine was repaired while the packet sat in the daemon-service
	// delay, admitEvent drops it (a revoked incarnation's message must
	// never reach the repaired one).
	epoch int
}

func (e *Engine) admitEvent(r admitRec) {
	if e.ft && r.epoch != e.epoch {
		e.fab.drop(r.m) // sent to a since-revoked incarnation
		return
	}
	e.admit(r.m)
}

// Close marks the engine dead (its process was killed): packets still in
// the pipeline — e.g. scheduled daemon-service events — are discarded
// instead of mutating a defunct process's state, and the inbox is
// dropped with them.
func (e *Engine) Close() {
	e.closed = true
	e.dropInbox()
}

func (e *Engine) admit(m WireMsg) {
	if e.closed {
		e.fab.drop(m)
		return
	}
	if e.prof.Async || e.opDepth > 0 {
		e.process(m)
		return
	}
	e.inbox.Push(m)
}

// process runs one message through the filter, lent in e.in.
func (e *Engine) process(m WireMsg) {
	if p := e.fab.unwrap(m, &e.in); e.filter.InPacket(p) {
		e.Deliver(p)
	}
	e.in.Data = nil // e.in must not keep the buffer alive
}

// Deliver hands a payload packet to the matching engine, which keeps a
// copy: p may be lent.  Protocols call it to re-inject held or replayed
// messages.  Delivery to a closed engine (a torn-down incarnation) is
// dropped.
func (e *Engine) Deliver(p *Packet) {
	if e.closed {
		return
	}
	if p.Kind != KindPayload {
		panic(fmt.Sprintf("mpi: %v reached the matching engine", p))
	}
	e.unexpected = append(e.unexpected, *p)
	if e.waiting && match(p, e.waitSrc, e.waitTag) {
		e.cond.Signal()
	}
}

// --- op bracketing ------------------------------------------------------

func (e *Engine) enterOp() {
	e.opDepth++
	if e.opDepth == 1 {
		e.drainInbox()
	}
}

func (e *Engine) exitOp() { e.opDepth-- }

func (e *Engine) drainInbox() {
	for e.inbox.Len() > 0 {
		e.process(e.inbox.Pop())
	}
}

// dropInbox discards the inbox, handing every message's body back.
func (e *Engine) dropInbox() {
	for e.inbox.Len() > 0 {
		e.fab.drop(e.inbox.Pop())
	}
}

// advanceInOp parks inside an MPI call; packets arriving meanwhile are
// processed immediately (the progress engine is polling).
func (e *Engine) advanceInOp(d sim.Time) { e.lp.Advance(d) }

// --- point-to-point -----------------------------------------------------

// Send transmits data (and/or a modelled vsize) to dst with an application
// tag (tag must be >= 0).  Sends are eager: the call returns once the
// message is handed to the device; it never blocks waiting for the
// receiver, so a checkpoint can never split a send.  data is handed over,
// not copied: it becomes the packet's Data, shared unless owned, and Send
// never sends it owned, so the receiver, a protocol's log and a checkpoint
// image may all share it and the caller must not write it again
// (Packet.Data).
func (e *Engine) Send(dst, tag int, data []byte, vsize int64) {
	if tag < 0 {
		panic("mpi: application tags must be >= 0")
	}
	e.enterOp()
	defer e.exitOp()
	e.chargeSend(data, vsize)
	e.send(dst, tag, data, vsize, false)
}

// chargeSend consumes the CPU cost of a send call.  It runs before the
// packet is built, so a checkpoint taken while parked here restores to a
// state where the send never happened and re-execution emits it once.
func (e *Engine) chargeSend(data []byte, vsize int64) {
	size := int64(len(data))
	if vsize > size {
		size = vsize
	}
	if c := e.prof.sendCost(size); c > 0 {
		e.advanceInOp(c)
	}
}

// send builds and emits a payload packet through the outgoing gate around
// buf itself, which nobody writes again once it is sent: a caller's handed
// over buffer, a block a collective received, a fresh encoding.  owned
// says the engine filled buf from Fabric.buffer for this packet alone
// (Packet.owned); a gate that keeps the packet clears it.  The packet is
// built in e.out, which the gate is lent; Fabric.Send puts it on the wire
// as a WireMsg and a body slot.
func (e *Engine) send(dst, tag int, buf []byte, vsize int64, owned bool) {
	p := &e.out
	*p = Packet{Src: e.rank, Dst: dst, Kind: KindPayload, owned: owned, Tag: tag, Data: buf, VSize: vsize}
	if e.filter.OutPayload(p) {
		e.fab.Send(e.rank, dst, p)
	}
	p.Data = nil // e.out must not keep the buffer alive
}

// Recv blocks until a payload from src with tag is available and returns
// it.
func (e *Engine) Recv(src, tag int) Packet {
	e.enterOp()
	defer e.exitOp()
	return e.recvMatch(src, tag)
}

func (e *Engine) recvMatch(src, tag int) Packet {
	for {
		// In FT mode a revocation or known peer failure aborts the receive
		// (both on entry and on every wake) instead of blocking forever.
		e.ftCheck(src)
		if i := e.findMatch(src, tag); i >= 0 {
			if c := e.prof.recvCost(e.unexpected[i].PayloadSize()); c > 0 {
				e.advanceInOp(c)
				// The queue may have grown while parked; re-find the
				// first match (never lost: only recvMatch removes).
				i = e.findMatch(src, tag)
			}
			p := e.unexpected[i]
			// Delete zeroes the vacated slot, which keeps no Data alive.
			e.unexpected = slices.Delete(e.unexpected, i, i+1)
			return p
		}
		e.waiting, e.waitSrc, e.waitTag = true, src, tag
		t0 := e.lp.Now()
		e.cond.Wait(e.lp)
		e.recvBlocked.Observe(e.lp.Now() - t0)
		e.waiting = false
	}
}

func (e *Engine) findMatch(src, tag int) int {
	for i := range e.unexpected {
		if match(&e.unexpected[i], src, tag) {
			return i
		}
	}
	return -1
}

func match(p *Packet, src, tag int) bool { return p.Src == src && p.Tag == tag }

// Sendrecv sends to dst and receives from src, resumable across a
// checkpoint: if a snapshot is taken while blocked in the receive, the
// restored process does not send again.  data is handed over as in Send.
func (e *Engine) Sendrecv(dst, sendTag int, data []byte, vsize int64, src, recvTag int) Packet {
	return e.exchange(func() {
		e.chargeSend(data, vsize)
		e.send(dst, sendTag, data, vsize, false)
	}, src, recvTag)
}

// SendrecvF64s is the typed Sendrecv of a halo exchange: it sends x to dst
// and decodes the vector received from src into into, which must be
// exactly as long; a payload of any other length would spill past into or
// fall short of it, so it panics.  x is encoded into an owned buffer
// (Packet.owned), and a payload that arrives owned goes back to the
// fabric once decoded, so a steady exchange allocates nothing.
func (e *Engine) SendrecvF64s(dst, sendTag int, x []float64, src, recvTag int, into []float64) {
	p := e.exchange(func() {
		e.chargeSend(nil, int64(8*len(x)))
		buf := e.fab.buffer(8 * len(x))
		putF64s(buf, x)
		e.send(dst, sendTag, buf, 0, true)
	}, src, recvTag)
	if len(p.Data) != 8*len(into) {
		panic(fmt.Sprintf("mpi: rank %d: SendrecvF64s from %d tag %d carries %d bytes, want %d",
			e.rank, src, recvTag, len(p.Data), 8*len(into)))
	}
	AppendF64s(into[:0], p.Data)
	e.release(&p)
}

// exchange is the resumable core of the send-receive calls: send runs
// unless a restored process already sent (CollState.Sent), then the
// receive from src matches.
func (e *Engine) exchange(send func(), src, recvTag int) Packet {
	e.enterOp()
	defer e.exitOp()
	cs, _ := e.beginColl(CollSendrecv)
	if !cs.Sent {
		send()
		cs.Sent = true
	}
	p := e.recvMatch(src, recvTag)
	e.endColl()
	return p
}

// release gives the buffer of a payload that arrived owned back to the
// fabric, once the caller has copied its bytes out: no other holder has
// it (Packet.Retain).
func (e *Engine) release(p *Packet) {
	if p.owned {
		e.fab.recycle(p.Data)
	}
}

// --- checkpoint support --------------------------------------------------

// EngineImage is the engine state stored inside a process checkpoint: the
// received-but-unconsumed messages and the progress of any in-flight
// collective operation.
type EngineImage struct {
	Unexpected []*Packet
	CollSeq    uint64
	Coll       *CollState
}

// CaptureImage snapshots the engine.  It may be called from event context
// while the process LP is parked — the kernel serializes execution, so the
// state is quiescent.
func (e *Engine) CaptureImage() *EngineImage {
	img := &EngineImage{CollSeq: e.collSeq}
	for i := range e.unexpected {
		img.Unexpected = append(img.Unexpected, e.unexpected[i].Clone())
	}
	if e.coll != nil {
		img.Coll = e.coll.clone()
	}
	return img
}

// RestoreImage loads a captured image into a fresh engine (after restart).
func (e *Engine) RestoreImage(img *EngineImage) {
	e.unexpected = nil
	for _, p := range img.Unexpected {
		e.unexpected = append(e.unexpected, *p)
	}
	e.collSeq = img.CollSeq
	e.coll = nil
	if img.Coll != nil {
		e.coll = img.Coll.clone()
		e.coll.Resumed = true
	}
}

// StateBytes estimates the engine's contribution to the checkpoint image
// size (unconsumed messages are part of the process memory).
func (img *EngineImage) StateBytes() int64 {
	var n int64 = 64
	for _, p := range img.Unexpected {
		n += p.PayloadSize() + packetHeader
	}
	return n
}
