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
	// in is the Packet a message is rebuilt into for InPacket, and pkt the
	// one send builds for OutPayload: both lent for the call.
	in, pkt Packet

	// unexpected holds delivered payloads by value until a receive
	// matches them.
	unexpected []Packet
	opDepth    int

	// A blocking call parks its LP once (DESIGN.md §5.2): a send's CPU
	// charge is the event sendEv, at whose end the packet out describes
	// enters the wire, and a receive's wait for its match and its charge
	// are the one timed wake wakeEv.  park says what the LP waits for;
	// waitSrc and waitTag name the receive's match and waitFrom when it
	// began to wait for it (mpi.recv_blocked).
	park     parkState
	out      outSend
	sendEv   sim.EventID
	wakeEv   sim.EventID
	waitSrc  int
	waitTag  int
	waitFrom sim.Time

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

	// met receives blocked-receive durations once SetMetrics names a
	// registry.
	met *obs.Metrics
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
func (e *Engine) SetMetrics(m *obs.Metrics) { e.met = m }

// recvWaited observes how long a receive parked for its message.
func (e *Engine) recvWaited() {
	if e.met != nil {
		e.met.RecvBlocked.Observe(e.lp.Now() - e.waitFrom)
	}
}

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
//
// A torn-down process may be parked in a charge: Close cancels its pending
// send, whose packet then never reaches the wire, and its armed receive
// wake, so the dead incarnation fires no event later.
func (e *Engine) Close() {
	e.closed = true
	e.cancelCharges()
	e.park = parkNone
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
	if e.park == parkMatch && match(p, e.waitSrc, e.waitTag) {
		e.recvWaited()
		e.charge(p.PayloadSize())
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

// --- point-to-point -----------------------------------------------------

// parkState is what an LP parked inside an MPI call waits for, and so which
// event may wake it and what it does then.
type parkState uint8

const (
	// parkNone: the LP is not parked in a call.
	parkNone parkState = iota
	// parkSend: Send or AllreduceF64 waits out its send charge; sendDone
	// wakes it.
	parkSend
	// parkPosted: a receive waits behind its own exchange's send charge;
	// sendDone looks for the match once the packet is out.
	parkPosted
	// parkMatch: a receive waits for its match.  Deliver arms the receive
	// charge; Revoke, NotifyFailed and FTReset wake the LP to check.
	parkMatch
	// parkCharge: the receive charge is armed (wakeEv).
	parkCharge
	// parkCheck: the LP runs ftCheck and looks for the match again.
	parkCheck
	// parkTake: the LP takes the first match and returns it.
	parkTake
	// parkRepair: AwaitRepair waits for FTReset.
	parkRepair
)

// outSend is a send waiting out its CPU charge.  owned says the engine
// filled buf from Fabric.buffer for this packet alone (Packet.owned), and
// mark that the send is the in-flight operation's own (CollState.Sent).
type outSend struct {
	dst, tag int
	buf      []byte
	vsize    int64
	owned    bool
	mark     bool
}

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
	e.chargeSend(outSend{dst: dst, tag: tag, buf: data, vsize: vsize})
	e.awaitSend()
}

// chargeSend starts the CPU charge of a send call: an event at now +
// sendCost, at whose end sendDone puts the packet through the outgoing gate
// and on the wire (a call with no charge sends at once).  The LP does not
// park for it: Send waits it out (awaitSend), and an exchange parks in its
// receive at once.
//
// Until the event fires the send has not happened: the packet is nowhere
// and CollState.Sent is false, so a checkpoint taken meanwhile restores to
// a state where re-execution sends it exactly once, and Close cancels the
// event, so a torn-down process puts nothing on the wire.
func (e *Engine) chargeSend(s outSend) {
	e.out = s
	if c := e.prof.sendCost(max(int64(len(s.buf)), s.vsize)); c > 0 {
		e.sendEv = e.lp.Kernel().AfterArg(c, sendEvent, e)
		return
	}
	e.sendDone()
}

func sendEvent(a any) { a.(*Engine).sendDone() }

// sendDone ends a send charge: it sends, marks the operation's send done,
// and moves on whatever the LP waits for behind it.
func (e *Engine) sendDone() {
	e.sendEv = 0
	s := e.out
	e.out = outSend{}
	e.send(s.dst, s.tag, s.buf, s.vsize, s.owned)
	if s.mark && e.coll != nil { // FTReset may have dropped the operation
		e.coll.Sent = true
	}
	switch e.park {
	case parkSend:
		e.park = parkNone
		e.cond.Signal()
	case parkPosted:
		e.look()
	}
}

// awaitSend parks the LP until its send charge has ended.
func (e *Engine) awaitSend() {
	for e.sendEv != 0 {
		e.park = parkSend
		e.wait()
	}
}

// wait parks the LP on the engine's condition until an event of its call
// wakes it.  An LP unwound while parked (killed, or left parked at the end
// of the run) cancels its pending charges, as a parked Advance cancels its
// timer; on a wake none is pending.
func (e *Engine) wait() {
	defer e.cancelCharges()
	e.cond.Wait(e.lp)
}

// cancelCharges cancels a pending send, handing back an owned buffer no
// packet took, and an armed receive wake.
func (e *Engine) cancelCharges() {
	k := e.lp.Kernel()
	if e.sendEv != 0 {
		k.Cancel(e.sendEv)
		e.sendEv = 0
		if e.out.owned {
			e.fab.recycle(e.out.buf)
		}
		e.out = outSend{}
	}
	if e.wakeEv != 0 {
		k.Cancel(e.wakeEv)
		e.wakeEv = 0
	}
}

// send builds and emits a payload packet through the outgoing gate around
// buf itself, which nobody writes again once it is sent: a caller's handed
// over buffer, a block a collective received, a fresh encoding.  owned
// says the engine filled buf from Fabric.buffer for this packet alone
// (Packet.owned); a gate that keeps the packet clears it.  The packet is
// built in e.pkt, which the gate is lent; Fabric.Send puts it on the wire
// as a WireMsg and a body slot.
func (e *Engine) send(dst, tag int, buf []byte, vsize int64, owned bool) {
	p := &e.pkt
	*p = Packet{Src: e.rank, Dst: dst, Kind: KindPayload, owned: owned, Tag: tag, Data: buf, VSize: vsize}
	if e.filter.OutPayload(p) {
		e.fab.Send(e.rank, dst, p)
	}
	p.Data = nil // e.pkt must not keep the buffer alive
}

// Recv blocks until a payload from src with tag is available and returns
// it.
func (e *Engine) Recv(src, tag int) Packet {
	e.enterOp()
	defer e.exitOp()
	return e.recvMatch(src, tag)
}

// recvMatch serves every receive, parking the LP once: until the receive
// charge of the first match from src with tag has ended, which is
// max(send done, match arrival) + recvCost.  Whichever event first knows
// that time arms the wake: the LP itself when the match is queued on
// entry, the exchange's send event, or Deliver of the match.
func (e *Engine) recvMatch(src, tag int) Packet {
	e.waitSrc, e.waitTag = src, tag
	e.park = parkCheck
	if e.sendEv != 0 {
		e.park = parkPosted
	}
	for {
		switch e.park {
		case parkCheck:
			// In FT mode a revocation or known peer failure aborts the
			// receive (on entry, once the send is out, and on every wake
			// while it waits for its match) instead of blocking forever.
			e.ftCheck(src)
			e.look()
		case parkTake:
			// The costed match is still the first: only recvMatch removes.
			e.park = parkNone
			i := e.findMatch(src, tag)
			p := e.unexpected[i]
			// Delete zeroes the vacated slot, which keeps no Data alive.
			e.unexpected = slices.Delete(e.unexpected, i, i+1)
			return p
		default:
			e.wait()
		}
	}
}

// look moves a posted receive on, in the LP or in an event: to the LP's
// FT abort when one is due, to its charge when the match is queued, and
// else to waiting for the match.
func (e *Engine) look() {
	if e.ftDue(e.waitSrc) {
		e.park = parkCheck
		e.cond.Signal()
		return
	}
	if i := e.findMatch(e.waitSrc, e.waitTag); i >= 0 {
		e.charge(e.unexpected[i].PayloadSize())
		return
	}
	e.park = parkMatch
	e.waitFrom = e.lp.Now()
}

// charge arms the receive charge of a match of size bytes, or wakes the
// LP to take it when the profile charges nothing.
func (e *Engine) charge(size int64) {
	if c := e.prof.recvCost(size); c > 0 {
		e.park = parkCharge
		e.wakeEv = e.lp.Kernel().AfterArg(c, wakeEvent, e)
		return
	}
	e.take()
}

func wakeEvent(a any) {
	e := a.(*Engine)
	e.wakeEv = 0
	e.take()
}

// take wakes the LP to take its match.  From the LP itself the Signal finds
// no waiter and recvMatch goes on.
func (e *Engine) take() {
	e.park = parkTake
	e.cond.Signal()
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
	e.enterOp()
	defer e.exitOp()
	if e.beginExchange() {
		e.chargeSend(outSend{dst: dst, tag: sendTag, buf: data, vsize: vsize, mark: true})
	}
	return e.endExchange(src, recvTag)
}

// SendrecvF64s is the typed Sendrecv of a halo exchange: it sends x to dst
// and decodes the vector received from src into into, which must be
// exactly as long; a payload of any other length would spill past into or
// fall short of it, so it panics.  x is encoded into an owned buffer
// (Packet.owned), and a payload that arrives owned goes back to the
// fabric once decoded, so a steady exchange allocates nothing.
func (e *Engine) SendrecvF64s(dst, sendTag int, x []float64, src, recvTag int, into []float64) {
	e.enterOp()
	defer e.exitOp()
	if e.beginExchange() {
		buf := e.fab.buffer(8 * len(x))
		putF64s(buf, x)
		e.chargeSend(outSend{dst: dst, tag: sendTag, buf: buf, owned: true, mark: true})
	}
	p := e.endExchange(src, recvTag)
	if len(p.Data) != 8*len(into) {
		panic(fmt.Sprintf("mpi: rank %d: SendrecvF64s from %d tag %d carries %d bytes, want %d",
			e.rank, src, recvTag, len(p.Data), 8*len(into)))
	}
	AppendF64s(into[:0], p.Data)
	e.release(&p)
}

// beginExchange starts or resumes a send-receive call and reports whether
// its send is still owed: a restored process that had already sent
// (CollState.Sent) sends no second time.
func (e *Engine) beginExchange() bool {
	cs, _ := e.beginColl(CollSendrecv)
	return !cs.Sent
}

// endExchange receives the exchange's payload from src and retires the
// call's state.
func (e *Engine) endExchange(src, recvTag int) Packet {
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
