package mpi

import (
	"fmt"

	"ftckpt/internal/obs"
	"ftckpt/internal/simnet"
)

// handlerOff maps endpoint ids onto table indices: ranks are >= 0 and the
// runtime service ids are small negatives (currently only SchedulerID), so
// id+handlerOff is a dense non-negative index.  Every per-endpoint table
// of the Fabric — placement, handlers, links — is indexed this way.
const handlerOff = -SchedulerID

// endpointIndex returns id's table index.  An id below the service range
// names no endpoint the fabric can host: that is a bug in the caller.
func endpointIndex(id int) int {
	i := id + handlerOff
	if i < 0 {
		panic(fmt.Sprintf("mpi: endpoint id %d below the service id range", id))
	}
	return i
}

// grown returns s extended with zero values to at least n elements.
func grown[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// link is the per-ordered-pair connection state: the FIFO channel and the
// packet sequence counter.  ch == nil means the connection is not open.
type link struct {
	ch  *simnet.Chan[WireMsg]
	seq uint64
}

// Fabric places endpoints (MPI ranks and runtime services) on simulated
// nodes and provides a FIFO channel per ordered endpoint pair, created
// lazily on first use — as MPICH2 opens TCP connections on the first
// communication between two processes.  Unbinding an endpoint (process
// death) closes every channel touching it, dropping in-flight packets like
// a socket reset; channels are recreated fresh (sequence numbers restart)
// when the endpoint is bound again, modelling the communication-layer
// reinitialization the paper's restart performs.
type Fabric struct {
	net *simnet.Network
	// wire carries every channel's WireMsgs to deliverPacket, bound once,
	// and hands those a closed channel drops to drop: a message is a value
	// from Send to its delivery or its drop.
	wire     *simnet.Wire[WireMsg]
	nodeOf   []int           // node+1 per endpoint index, 0 = not placed
	handlers []func(WireMsg) // per endpoint index, nil = unbound
	// links[src][dst] by endpoint index.  A source's row is allocated on
	// its first send and links are held by value, so the per-packet send
	// path is two slice indexings and opening a link allocates nothing but
	// a 64th of a chunk of channels (simnet.Wire.NewChan).
	links [][]link
	// lent is the Packet a message is rebuilt into for a Bind handler,
	// for the length of the call.
	lent Packet
	// bodies is the rest of the chunk Send carves body slots from, and
	// free the emptied slots of consumed and dropped messages, which Send
	// takes first (WireMsg).  A slot is on the list only while no message
	// holds it, so the list is at most the bodies in flight at the peak.
	bodies []wireBody
	free   []*wireBody
	// spare holds, by capacity, the buffers of owned payloads that their
	// receivers have copied out (Engine.release), at most maxSpare of
	// each: the next owned send of that size refills one (Fabric.buffer).
	spare map[int][][]byte

	// met counts the traffic once SetMetrics names a registry.
	met *obs.Metrics
}

// NewFabric wraps a simulated network.
func NewFabric(net *simnet.Network) *Fabric {
	f := &Fabric{net: net}
	f.wire = simnet.NewWire(net, f.deliverPacket)
	f.wire.SetDrop(f.drop)
	return f
}

// SetMetrics attaches the observability registry the traffic counters
// live in (nil disables).
func (f *Fabric) SetMetrics(m *obs.Metrics) { f.met = m }

// Place assigns an endpoint to a node.  An endpoint must be placed before
// it sends, receives, or is bound.
func (f *Fabric) Place(id, node int) {
	if node < 0 || node >= f.net.NumNodes() {
		panic(fmt.Sprintf("mpi: endpoint %d placed on invalid node %d", id, node))
	}
	i := endpointIndex(id)
	f.nodeOf = grown(f.nodeOf, i+1)
	f.nodeOf[i] = node + 1
}

// NodeOf returns the node an endpoint lives on.
func (f *Fabric) NodeOf(id int) int {
	if !f.Placed(id) {
		panic(fmt.Sprintf("mpi: endpoint %d not placed", id))
	}
	return f.nodeOf[id+handlerOff] - 1
}

// Placed reports whether the endpoint has been placed on a node.
func (f *Fabric) Placed(id int) bool {
	i := id + handlerOff
	return i >= 0 && i < len(f.nodeOf) && f.nodeOf[i] != 0
}

// Bind registers the packet handler for an endpoint.  The handler runs as
// an event callback for every packet addressed to the endpoint.  Every
// packet, of any kind, is lent for the call (WireMsg), so a handler that
// keeps one copies it.
func (f *Fabric) Bind(id int, h func(*Packet)) {
	f.BindWire(id, func(m WireMsg) {
		h(f.unwrap(m, &f.lent))
		f.lent.Data = nil // f.lent must not keep the buffer alive
	})
}

// BindWire registers an endpoint's handler for the messages themselves, as
// they left the wire: an Engine keeps them by value until it processes
// them (Engine.HandleWire).
func (f *Fabric) BindWire(id int, h func(WireMsg)) {
	i := endpointIndex(id)
	f.handlers = grown(f.handlers, i+1)
	f.handlers[i] = h
}

// handler returns the bound handler for an endpoint, nil when unbound.
func (f *Fabric) handler(id int) func(WireMsg) {
	if i := id + handlerOff; i >= 0 && i < len(f.handlers) {
		return f.handlers[i]
	}
	return nil
}

// Unbind removes an endpoint's handler and resets every channel touching
// it.  Queued and in-flight packets are lost.  Channels close in ascending
// (src, dst) order: closing cancels in-flight flows and re-arms the
// earliest finisher of every resource clock they changed, which assigns
// fresh kernel event sequence numbers, so the close order decides which
// equal-time completions fire first and must not depend on anything but
// the ids.
func (f *Fabric) Unbind(id int) {
	i := id + handlerOff
	if i < 0 {
		return
	}
	if i < len(f.handlers) {
		f.handlers[i] = nil
	}
	// Column i above the row, the row itself, then column i below it.
	for src := range f.links {
		row := f.links[src]
		switch {
		case src == i:
			for dst := range row {
				row[dst].close()
			}
		case i < len(row):
			row[i].close()
		}
	}
}

func (l *link) close() {
	if l.ch != nil {
		l.ch.Close()
		*l = link{}
	}
}

// linkFor returns the src→dst link, opening its channel on first use.
func (f *Fabric) linkFor(src, dst int) *link {
	si, di := endpointIndex(src), endpointIndex(dst)
	f.links = grown(f.links, si+1)
	if di >= len(f.links[si]) {
		// Endpoints are placed before anyone sends, so nodeOf already
		// spans every peer and a row is sized once.
		f.links[si] = grown(f.links[si], max(di+1, len(f.nodeOf)))
	}
	l := &f.links[si][di]
	if l.ch == nil {
		l.ch = f.wire.NewChan(f.NodeOf(src), f.NodeOf(dst))
	}
	return l
}

// deliverPacket is the wire's arrival callback, for every channel: it routes
// the message to its destination handler, silently dropping it when the
// destination is unbound (peer died).
func (f *Fabric) deliverPacket(m WireMsg) {
	if h := f.handler(m.dest()); h != nil {
		h(m)
		return
	}
	f.drop(m)
}

// unwrap consumes m: it rebuilds the message into lent (WireMsg.packet)
// and hands its body slot back.
func (f *Fabric) unwrap(m WireMsg, lent *Packet) *Packet {
	m.packet(lent)
	f.drop(m)
	return lent
}

// drop hands back the body slot of a message that has been consumed or
// will never be: emptied, so a chunk kept alive by its other slots pins
// no dead message's Data.  m is not read again.
func (f *Fabric) drop(m WireMsg) {
	if b := m.body; b != nil {
		*b = wireBody{}
		f.free = append(f.free, b)
	}
}

// maxSpare bounds the recycled buffers the Fabric keeps of one capacity.
// A steady exchange returns a buffer about as often as it draws one, so
// the list stays near the number of messages in flight; the bound caps
// what a burst of returns can keep.
const maxSpare = 64

// buffer returns an n-byte buffer for an owned send: one a receiver gave
// back when there is one of that capacity, else a fresh one.
func (f *Fabric) buffer(n int) []byte {
	s := f.spare[n]
	if len(s) == 0 {
		return make([]byte, n)
	}
	b := s[len(s)-1]
	s[len(s)-1] = nil
	f.spare[n] = s[:len(s)-1]
	return b[:n]
}

// recycle takes back the buffer of an owned payload once its receiver has
// copied it out, unless maxSpare of its capacity are already spare.
func (f *Fabric) recycle(b []byte) {
	if f.spare == nil {
		f.spare = map[int][][]byte{}
	}
	if s := f.spare[cap(b)]; len(s) < maxSpare {
		f.spare[cap(b)] = append(s, b)
	}
}

// body returns an empty slot for a message's body: one a consumed or
// dropped message handed back, else the next of the chunk.
func (f *Fabric) body() *wireBody {
	if n := len(f.free); n > 0 {
		b := f.free[n-1]
		f.free = f.free[:n-1]
		return b
	}
	if len(f.bodies) == 0 {
		f.bodies = make([]wireBody, bodyChunk)
	}
	b := &f.bodies[0]
	f.bodies = f.bodies[1:]
	return b
}

// Send transmits a packet from src to dst over their FIFO channel, as the
// link's next Seq.  It reads p and never keeps it, so the caller's packet
// may live on its stack: the header travels in the WireMsg itself, and
// Data and VSize, when the packet has either, in a body slot of the
// Fabric's (body).  Sending to an unplaced endpoint, or to an id below
// the service range, panics (programming error), as does a header the
// record cannot hold; sending to an unbound endpoint silently drops at
// delivery time (peer died).
func (f *Fabric) Send(src, dst int, p *Packet) {
	l := f.linkFor(src, dst)
	l.seq++
	m := header(p, src, dst, l.seq)
	if p.Data != nil || p.VSize != 0 {
		m.body = f.body()
		*m.body = wireBody{p.Data, p.VSize}
	}
	if f.met != nil {
		f.met.FabricMsgs++
		f.met.FabricPayloadBytes += p.PayloadSize()
	}
	l.ch.Send(m, p.WireSize())
}
