package mpi

import (
	"fmt"
	"slices"

	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// handlerOff maps endpoint ids onto table indices: ranks are >= 0 and the
// runtime service ids are small negatives (currently only SchedulerID), so
// id+handlerOff is a dense non-negative index.  Every per-endpoint table
// of the Fabric — placement, handlers, channels, post logs — is indexed
// this way.
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

// conn is an open channel from a source: its destination's table index,
// the number of packets it has carried since it opened, and the channel.
// A conn is 16 bytes: seq is a uint32, as the wire record's is.
type conn struct {
	dst int32
	seq uint32
	ch  *simnet.Chan[WireMsg]
}

// posted is what a source sent without a channel — one control packet or
// a run of markers: rel holds the release keys, the i-th for the i-th
// destination from dst0 on with the source itself skipped (runDst), and
// unbinds the Fabric's unbind count at the send, which the packets carry
// too (stale).
type posted struct {
	rel     sim.Run
	dst0    int32
	unbinds uint32
}

// A source's post log is its posts that may still be on its NIC, oldest
// first.  Each post drops the entries whose releases have all passed, so
// a log holds the few posts of the last wave, not one per peer.  A
// source's first postLogCap posts and its first connCap channels come
// from chunks the Fabric shares among srcChunk sources.
const postLogCap, connCap, srcChunk = 4, 16, 64

// runDst returns the i-th destination of a run from src that starts at
// dst0 and skips src.
func runDst(src, dst0, i int) int {
	d := dst0 + i
	if dst0 < src && d >= src {
		d++
	}
	return d
}

// index returns the position among p's destinations of dst, the i-th of
// the run from src, or -1 when p did not go to dst.
func (p *posted) index(src, dst int) int {
	i := dst - int(p.dst0)
	if int(p.dst0) < src && dst > src {
		i--
	}
	if i < 0 || i >= p.rel.Len() || runDst(src, int(p.dst0), i) != dst {
		return -1
	}
	return i
}

// Fabric places endpoints (MPI ranks and runtime services) on simulated
// nodes and provides a FIFO channel per ordered endpoint pair, created
// lazily on the pair's first payload — as MPICH2 opens TCP connections on
// the first communication between two processes.  A pair that has carried
// only markers and control packets has no channel and no state at all:
// those are posted on the source node's transmit horizon
// (simnet.Wire.PostRun), timed and keyed as on an idle channel, and filed
// in the source's post log; a channel opened while one is still on the NIC
// inherits its release, so the pair stays FIFO.  Unbinding an endpoint
// (process death) closes every channel touching it, dropping in-flight
// packets like a socket reset, and stamps it so that its posted packets
// in flight are dropped the same way; channels are recreated fresh
// (sequence numbers restart) when the endpoint is bound again, modelling
// the communication-layer reinitialization the paper's restart performs.
type Fabric struct {
	net *simnet.Network
	// wire carries every channel's WireMsgs to deliverPacket, bound once,
	// and hands those a closed channel drops to drop: a message is a value
	// from Send to its delivery or its drop.
	wire     *simnet.Wire[WireMsg]
	nodeOf   []int           // node+1 per endpoint index, 0 = not placed
	handlers []func(WireMsg) // per endpoint index, nil = unbound
	// chans[src] is src's open channels by endpoint index, sorted by
	// destination and found by binary search (search): a rank opens a
	// few, one per peer it exchanges payloads with, so fabric state is
	// O(channels), and a marker or control packet on a new pair allocates
	// nothing.  Opening a channel takes a 64th of a chunk of channels
	// (simnet.Wire.NewChan).
	chans [][]conn
	conns []conn // the rest of the chunk the channel slices start in (open)
	// posts[src] is src's post log, and logs the rest of the chunk the
	// logs start in (record).
	posts [][]posted
	logs  []posted
	// unbinds counts Unbind calls, and unbound[i] is the count just after
	// endpoint i's last.  A posted packet carries the count at its send
	// in its seq field, as its post log entry does, and it is stale —
	// dropped on arrival, ignored by pending — once either end's stamp
	// exceeds it: exactly when the channel it would have ridden has been
	// closed.
	unbinds uint32
	unbound []uint32
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
	f.wire.SetPosts(nthMarker, f.stale)
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

// Unbind removes an endpoint's handler and closes every channel touching
// it.  Queued and in-flight packets are lost, posted ones too (stale).
// Channels close in ascending (src, dst) order: closing cancels in-flight
// flows and re-arms the earliest finisher of every resource clock they
// changed, which assigns fresh kernel event sequence numbers, so the close
// order decides which equal-time completions fire first and must not
// depend on anything but the ids.
func (f *Fabric) Unbind(id int) {
	i := id + handlerOff
	if i < 0 {
		return
	}
	if i < len(f.handlers) {
		f.handlers[i] = nil
	}
	f.unbinds++
	f.unbound = grown(f.unbound, i+1)
	f.unbound[i] = f.unbinds
	if i < len(f.posts) {
		f.posts[i] = f.posts[i][:0]
	}
	// The channels to i from the sources below it, i's own, then those to
	// i from the sources above it.
	for src, cs := range f.chans {
		if src == i {
			for _, c := range cs {
				c.ch.Close()
			}
			f.chans[src] = slices.Delete(cs, 0, len(cs))
		} else if j := search(cs, i); j < len(cs) && int(cs[j].dst) == i {
			cs[j].ch.Close()
			f.chans[src] = slices.Delete(cs, j, j+1)
		}
	}
}

// count advances the channel's sequence number for one more packet.
func (c *conn) count() {
	if c.seq++; c.seq == 0 {
		panic("mpi: a channel carried 2^32 packets")
	}
}

// search returns the index of the first of cs whose destination is at
// table index di or above.
func search(cs []conn, di int) int {
	lo, hi := 0, len(cs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(cs[m].dst) < di {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// open opens the channel from src to dst, at table indices si and di, as
// the j-th of si's (search), and returns it.  When the pair's last posted
// packet is still on the NIC (pending), the channel inherits its release,
// so whatever it carries follows that packet.
func (f *Fabric) open(si, di, j, src, dst int) *conn {
	c := conn{dst: int32(di), ch: f.wire.NewChan(f.NodeOf(src), f.NodeOf(dst))}
	if rel, ok := f.pending(si, src, dst); ok {
		c.ch.Inherit(rel)
	}
	if si >= len(f.chans) {
		// Endpoints are placed before anyone sends, so nodeOf already
		// spans every source and the table is sized once.
		f.chans = grown(f.chans, max(si+1, len(f.nodeOf)))
	}
	cs := f.chans[si]
	if cs == nil {
		if len(f.conns) == 0 {
			f.conns = make([]conn, connCap*srcChunk)
		}
		cs = f.conns[:0:connCap]
		f.conns = f.conns[connCap:]
	}
	f.chans[si] = slices.Insert(cs, j, c)
	return &f.chans[si][j]
}

// pending returns the release key of the last packet src, at table index
// si, posted to dst, with ok false when there is none or it has cleared
// the NIC.  It scans the source's post log from the newest post back: the
// log drops only posts whose every release has passed, and a post from
// before an Unbind of either end is stale, as the channel it stood for.
func (f *Fabric) pending(si, src, dst int) (rel sim.Key, ok bool) {
	if si >= len(f.posts) {
		return rel, false
	}
	log := f.posts[si]
	for j := len(log) - 1; j >= 0; j-- {
		p := &log[j]
		if i := p.index(src, dst); i >= 0 {
			if f.unboundSince(src, dst, p.unbinds) {
				return rel, false
			}
			rel = p.rel.Key(i)
			return rel, !f.net.Kernel().Passed(rel)
		}
	}
	return rel, false
}

// record files a post from the source at table index si in its log, first
// dropping the entries whose every release has passed.
func (f *Fabric) record(si int, p posted) {
	if si >= len(f.posts) {
		f.posts = grown(f.posts, max(si+1, len(f.nodeOf)))
	}
	log := f.posts[si]
	if log == nil {
		if len(f.logs) == 0 {
			f.logs = make([]posted, postLogCap*srcChunk)
		}
		log = f.logs[:0:postLogCap]
		f.logs = f.logs[postLogCap:]
	}
	k := f.net.Kernel()
	n := 0
	for n < len(log) && k.Passed(log[n].rel.Last()) {
		n++
	}
	if n > 0 {
		log = log[:copy(log, log[n:])]
	}
	f.posts[si] = append(log, p)
}

// stale is the wire's test for a posted message on arrival: whether src or
// dst has been unbound since it was sent (its seq holds the unbind count
// at the send, post).
func (f *Fabric) stale(m WireMsg) bool {
	return f.unboundSince(int(m.src), int(m.dst), m.seq)
}

// unboundSince reports whether src or dst has been unbound since the
// Fabric's unbind count was unbinds.
func (f *Fabric) unboundSince(src, dst int, unbinds uint32) bool {
	return f.unboundAt(src) > unbinds || f.unboundAt(dst) > unbinds
}

func (f *Fabric) unboundAt(id int) uint32 {
	if i := id + handlerOff; i < len(f.unbound) {
		return f.unbound[i]
	}
	return 0
}

// nthMarker is the i-th marker of a posted run whose first is m: to the
// i-th destination, with the i-th span.
func nthMarker(m WireMsg, i int) WireMsg {
	m.dst = int32(runDst(int(m.src), int(m.dst), i))
	if m.spanAux {
		m.aux += uint64(i)
	}
	return m
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
// channel's next Seq.  A marker or control packet without Data or VSize on
// a pair that has no channel is posted instead (post).  Send reads p and
// never keeps it, so the caller's packet may live on its stack: the header
// travels in the WireMsg itself, and Data and VSize, when the packet has
// either, in a body slot of the Fabric's (body).  Sending to an unplaced
// endpoint, or to an id below the service range, panics (programming
// error), as does a header the record cannot hold; sending to an unbound
// endpoint silently drops at delivery time (peer died).
func (f *Fabric) Send(src, dst int, p *Packet) {
	si, di := endpointIndex(src), endpointIndex(dst)
	if f.met != nil {
		f.met.FabricMsgs++
		f.met.FabricPayloadBytes += p.PayloadSize()
	}
	var cs []conn
	if si < len(f.chans) {
		cs = f.chans[si]
	}
	var c *conn
	if j := search(cs, di); j < len(cs) && int(cs[j].dst) == di {
		c = &cs[j]
	} else {
		if p.Kind != KindPayload && p.Data == nil && p.VSize == 0 {
			if _, busy := f.pending(si, src, dst); !busy {
				f.post(si, src, f.NodeOf(src), p, dst, f.NodeOf(dst), 1)
				return
			}
		}
		c = f.open(si, di, j, src, dst)
	}
	c.count()
	m := header(p, src, dst, uint64(c.seq))
	if p.Data != nil || p.VSize != 0 {
		m.body = f.body()
		*m.body = wireBody{p.Data, p.VSize}
	}
	c.ch.Send(m, p.WireSize())
}

// Flood sends the body-less packet p (a marker) from src to every endpoint
// in [lo, hi) but src, in ascending order, the k-th of them with SpanID
// p.SpanID+k when p has a span: what Send would do for each, keys
// included.  The packets to a run of consecutive destinations whose pairs
// are idle and whose paths are timed alike (simnet.Network.SameSmallPath)
// are posted as one run, which the source node's lane holds as one record;
// a destination whose channel is busy, or whose last posted packet is
// still on the NIC, gets its packet queued on its channel, as Send would.
// The source's channels are walked beside the destinations, in the same
// ascending order.
func (f *Fabric) Flood(src, lo, hi int, p *Packet) {
	if p.Kind == KindPayload || p.Data != nil || p.VSize != 0 {
		// The panic names the fields, not p, which would escape.
		panic(fmt.Sprintf("mpi: flooding a %v with %d payload bytes from %d: only a body-less marker or control packet floods", p.Kind, p.PayloadSize(), src))
	}
	si, node := endpointIndex(src), f.NodeOf(src)
	q := *p                // the packet to dst, with its span
	var dst0, node0, n int // the run being gathered: its first destination and node, and length
	var span0 uint64
	flush := func() {
		r := q
		r.SpanID = span0
		f.post(si, src, node, &r, dst0, node0, n)
		n = 0
	}
	j := 0 // the first of src's channels not to a destination passed
	for dst := lo; dst < hi; dst++ {
		if dst == src {
			continue
		}
		di := endpointIndex(dst)
		var c *conn
		if si < len(f.chans) {
			cs := f.chans[si]
			for j < len(cs) && int(cs[j].dst) < di {
				j++
			}
			if j < len(cs) && int(cs[j].dst) == di {
				c = &cs[j]
			}
		}
		dn := f.NodeOf(dst)
		busy := false
		if c != nil {
			busy = c.ch.Busy()
		} else {
			_, busy = f.pending(si, src, dst)
		}
		if n > 0 && (busy || !f.net.SameSmallPath(node, node0, dn)) {
			flush()
		}
		switch {
		case busy:
			if c == nil {
				c = f.open(si, di, j, src, dst)
			}
			c.count()
			c.ch.Send(header(&q, src, dst, uint64(c.seq)), q.WireSize())
		case n == 0:
			dst0, node0, n, span0 = dst, dn, 1, q.SpanID
		default:
			n++
		}
		if q.SpanID != 0 {
			q.SpanID++
		}
		if f.met != nil {
			f.met.FabricMsgs++
		}
	}
	if n > 0 {
		flush()
	}
}

// post transmits p from src (at table index si, on node) to the n
// destinations from dst0 on (src skipped), the first on node node0,
// without a channel, and files the post in src's log.  Their packets
// carry the Fabric's unbind count in place of a channel sequence number
// (WireMsg.posted), so stale can tell them from packets sent after an
// Unbind.  A destination whose pair has an idle channel inherits its
// packet's release, which keeps that channel FIFO.
func (f *Fabric) post(si, src, node int, p *Packet, dst0, node0, n int) {
	m := header(p, src, dst0, uint64(f.unbinds))
	m.posted = true
	pr := posted{f.wire.PostRun(node, node0, m, p.WireSize(), n), int32(dst0), f.unbinds}
	f.record(si, pr)
	if si >= len(f.chans) {
		return
	}
	cs, last := f.chans[si], endpointIndex(runDst(src, dst0, n-1))
	for j := search(cs, endpointIndex(dst0)); j < len(cs) && int(cs[j].dst) <= last; j++ {
		if i := pr.index(src, int(cs[j].dst)-handlerOff); i >= 0 {
			cs[j].ch.Inherit(pr.rel.Key(i))
		}
	}
}
