package mpi

import (
	"fmt"

	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
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

// link is the per-ordered-pair connection state: the FIFO channel, the
// packet sequence counter, which counts every packet of the pair, and the
// pair's last post.  ch == nil means no payload has opened the channel
// yet: the pair's markers and control packets are posted (Fabric.post).
// A link is 16 bytes: seq is a uint32, as the wire record's is.
type link struct {
	ch  *simnet.Chan[WireMsg]
	seq uint32
	// post is 1 + the number of posts the source had made before the one
	// that carried the pair's last posted packet (postLog), 0 when none.
	post uint32
}

// posted is what a source sent without a channel — one control packet or
// a run of markers: rel holds the release keys, the i-th for the i-th
// destination from dst0 on with the source itself skipped (runDst).
type posted struct {
	rel  sim.Run
	dst0 int32
}

// postLog is a source's posts that may still be on its NIC, oldest first:
// the last len(ps) of the n it has made.  Each post drops the entries
// whose releases have all passed, so a log holds the few posts of the
// last wave, not one per peer: its first postLogCap come from a chunk the
// Fabric shares among logChunk sources.
type postLog struct {
	ps []posted
	n  uint32
}

const postLogCap, logChunk = 4, 64

// runDst returns the i-th destination of a run from src that starts at
// dst0 and skips src.
func runDst(src, dst0, i int) int {
	d := dst0 + i
	if dst0 < src && d >= src {
		d++
	}
	return d
}

// release returns the release key of p's message from src to dst.
func (p *posted) release(src, dst int) sim.Key {
	i := dst - int(p.dst0)
	if int(p.dst0) < src && dst > src {
		i--
	}
	return p.rel.Key(i)
}

// Fabric places endpoints (MPI ranks and runtime services) on simulated
// nodes and provides a FIFO channel per ordered endpoint pair, created
// lazily on the pair's first payload — as MPICH2 opens TCP connections on
// the first communication between two processes.  A pair that has carried
// only markers and control packets has no channel: those are posted on the
// source node's transmit horizon (simnet.Wire.PostRun), timed and keyed as
// on an idle channel, and a channel opened while one is still on the NIC
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
	// links[src][dst] by endpoint index.  A source's row is allocated on
	// its first send and links are held by value, so the per-packet send
	// path is two slice indexings, a marker or control packet on a new
	// pair allocates nothing, and opening a channel a 64th of a chunk of
	// channels (simnet.Wire.NewChan).
	links [][]link
	// posts[src] is what src posted that may still be on its NIC, and
	// logs the rest of the chunk the logs start in (record).
	posts []postLog
	logs  []posted
	// unbinds counts Unbind calls, and unbound[i] is the count just after
	// endpoint i's last.  A posted packet carries the count at its send
	// in its seq field, and it is stale — dropped on arrival — once
	// either end's stamp exceeds it: exactly when the channel it would
	// have ridden has been closed.
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

// Unbind removes an endpoint's handler and resets every link touching it.
// Queued and in-flight packets are lost, posted ones too (stale).
// Channels close in ascending
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
	f.unbinds++
	f.unbound = grown(f.unbound, i+1)
	f.unbound[i] = f.unbinds
	if i < len(f.posts) {
		f.posts[i].ps = f.posts[i].ps[:0]
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

// count advances the link's sequence number for one more packet.
func (l *link) count() {
	if l.seq++; l.seq == 0 {
		panic("mpi: a link carried 2^32 packets")
	}
}

func (l *link) close() {
	if l.ch != nil {
		l.ch.Close()
	}
	*l = link{}
}

// link returns the link between the endpoints at table indices si and di.
func (f *Fabric) link(si, di int) *link {
	f.links = grown(f.links, si+1)
	f.posts = grown(f.posts, si+1)
	if di >= len(f.links[si]) {
		// Endpoints are placed before anyone sends, so nodeOf already
		// spans every peer and a row is sized once.
		f.links[si] = grown(f.links[si], max(di+1, len(f.nodeOf)))
	}
	return &f.links[si][di]
}

// open opens l's channel from src to dst.  When the pair's last posted
// packet is still on the NIC (pending), the channel inherits its release,
// so whatever it carries follows that packet.
func (f *Fabric) open(l *link, si, src, dst int) {
	l.ch = f.wire.NewChan(f.NodeOf(src), f.NodeOf(dst))
	if rel, ok := f.pending(l, si, src, dst); ok {
		l.ch.Inherit(rel)
	}
}

// pending returns the release key of the last packet src posted to dst on
// link l, with ok false when there is none or it has cleared the NIC.  An
// Unbind of either end resets the link, so a stale post is never found.
func (f *Fabric) pending(l *link, si, src, dst int) (rel sim.Key, ok bool) {
	if l.post == 0 {
		return rel, false
	}
	log := &f.posts[si]
	j := int(l.post-1) - (int(log.n) - len(log.ps))
	if j < 0 {
		return rel, false // dropped from the log: every release passed
	}
	rel = log.ps[j].release(src, dst)
	return rel, !f.net.Kernel().Passed(rel)
}

// record files a post from the source at table index si, first dropping
// the entries whose every release has passed, and returns its id + 1
// (link.post).
func (f *Fabric) record(si int, p posted) uint32 {
	log := &f.posts[si]
	if log.ps == nil {
		if len(f.logs) == 0 {
			f.logs = make([]posted, postLogCap*logChunk)
		}
		log.ps = f.logs[:0:postLogCap]
		f.logs = f.logs[postLogCap:]
	}
	k := f.net.Kernel()
	n := 0
	for n < len(log.ps) && k.Passed(log.ps[n].rel.Last()) {
		n++
	}
	if n > 0 {
		log.ps = log.ps[:copy(log.ps, log.ps[n:])]
	}
	log.ps = append(log.ps, p)
	log.n++
	return log.n
}

// stale is the wire's test for a posted message on arrival: whether src or
// dst has been unbound since it was sent (its seq holds the unbind count
// at the send, post).
func (f *Fabric) stale(m WireMsg) bool {
	return f.unboundAt(int(m.src)) > m.seq || f.unboundAt(int(m.dst)) > m.seq
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
// link's next Seq.  A marker or control packet without Data or VSize on a
// pair that has no channel is posted instead (post).  Send reads p and
// never keeps it, so the caller's packet may live on its stack: the header
// travels in the WireMsg itself, and Data and VSize, when the packet has
// either, in a body slot of the Fabric's (body).  Sending to an unplaced
// endpoint, or to an id below the service range, panics (programming
// error), as does a header the record cannot hold; sending to an unbound
// endpoint silently drops at delivery time (peer died).
func (f *Fabric) Send(src, dst int, p *Packet) {
	si := endpointIndex(src)
	l := f.link(si, endpointIndex(dst))
	l.count()
	if f.met != nil {
		f.met.FabricMsgs++
		f.met.FabricPayloadBytes += p.PayloadSize()
	}
	if l.ch == nil {
		if p.Kind != KindPayload && p.Data == nil && p.VSize == 0 {
			if _, busy := f.pending(l, si, src, dst); !busy {
				f.post(si, src, f.NodeOf(src), p, dst, f.NodeOf(dst), 1)
				return
			}
		}
		f.open(l, si, src, dst)
	}
	m := header(p, src, dst, uint64(l.seq))
	if p.Data != nil || p.VSize != 0 {
		m.body = f.body()
		*m.body = wireBody{p.Data, p.VSize}
	}
	l.ch.Send(m, p.WireSize())
}

// Flood sends the body-less packet p (a marker) from src to every endpoint
// in [lo, hi) but src, in ascending order, the k-th of them with SpanID
// p.SpanID+k when p has a span: what Send would do for each, keys and
// sequence numbers included.  The packets to a run of consecutive
// destinations whose pairs are idle and whose paths are timed alike
// (simnet.Network.SameSmallPath) are posted as one run, which the source
// node's lane holds as one record; a destination whose channel is busy,
// or whose last posted packet is still on the NIC, gets its packet queued
// on its channel, as Send would.
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
	for dst := lo; dst < hi; dst++ {
		if dst == src {
			continue
		}
		l := f.link(si, endpointIndex(dst))
		l.count()
		dn := f.NodeOf(dst)
		busy := false
		if l.ch != nil {
			busy = l.ch.Busy()
		} else {
			_, busy = f.pending(l, si, src, dst)
		}
		if n > 0 && (busy || !f.net.SameSmallPath(node, node0, dn)) {
			flush()
		}
		switch {
		case busy:
			if l.ch == nil {
				f.open(l, si, src, dst)
			}
			l.ch.Send(header(&q, src, dst, uint64(l.seq)), q.WireSize())
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
// without a channel: their packets carry the Fabric's unbind count in
// place of a link sequence number (Packet.Seq is read only by
// Packet.String), so stale can tell them from packets sent after an
// Unbind.  A destination whose pair has an idle channel inherits its
// packet's release, which keeps that channel FIFO; the others' links
// remember the post (link.post).
func (f *Fabric) post(si, src, node int, p *Packet, dst0, node0, n int) {
	m := header(p, src, dst0, uint64(f.unbinds))
	pr := posted{f.wire.PostRun(node, node0, m, p.WireSize(), n), int32(dst0)}
	id := f.record(si, pr)
	row := f.links[si]
	for i := 0; i < n; i++ {
		if l := &row[endpointIndex(runDst(src, dst0, i))]; l.ch != nil {
			l.ch.Inherit(pr.rel.Key(i))
		} else {
			l.post = id
		}
	}
}
