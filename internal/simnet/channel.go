package simnet

import (
	"fmt"

	"ftckpt/internal/sim"
)

// smallCutoff is the size below which a message takes the fast path: its
// transfer time is charged against a per-node transmit horizon (so bursts
// of control messages still serialize on the NIC) instead of joining the
// fluid bandwidth-sharing machinery.  Without this, an n-process marker
// flood creates O(n²) simultaneous flows, each a Flow on two NIC clocks
// and every arrival and departure a change to both — quadratic simulation
// cost for messages whose bandwidth footprint is negligible.  Messages at or above the
// cutoff (application payloads, checkpoint images) use fluid flows and
// contend normally.
const smallCutoff = 4 << 10

// A Wire carries messages of one type T over the network to one deliver
// callback: it owns the event lanes its messages ride from transmission to
// delivery, and it carves its channels from chunks.  A small message needs
// no channel of its own (PostRun): it rides the same transmit horizon and
// lanes as a channel's, and a channel opened later on its path inherits
// its release (Chan.Inherit).  Per
// node, one lane releases a backlogged channel at the node's transmit
// horizon and two deliver small messages one latency later (one per
// latency class, so each stays monotone); per cluster plus one for the
// WAN, a lane delivers the channels' bulk messages.  Every record on them
// holds the message by value, so a message type with no pointers to the
// heap (mpi.WireMsg for a marker) is never allocated between Send and its
// delivery.  The transmit horizon itself belongs to the node, so the
// channels of every Wire on one network serialize on the same NIC.
type Wire[T any] struct {
	net *Network
	// deliver runs as an event callback when a message arrives; it must
	// not block (hand off to an LP through a sim.Cond if needed).  It is
	// the Wire's, not each channel's: the message says where it goes.
	deliver func(T)
	// drop, when set (SetDrop), hears of every message a closed channel
	// will never deliver, so whatever the message holds can go back.
	drop func(T)
	// nth builds the i-th message of a run from its first, and stale
	// tells whether a posted message is to be dropped on arrival, as a
	// closed channel's would be (SetPosts).
	nth   func(T, int) T
	stale func(T) bool
	nodes []wireNode[T]
	// bulkIntra[c] carries the deliveries of channel flows inside cluster
	// c and bulkWan those between clusters: each adds one constant latency
	// to a completion time that never decreases, so each lane is monotone.
	bulkIntra []*sim.Lane[delivery[T]]
	bulkWan   *sim.Lane[delivery[T]]
	// spare is the rest of the chunk NewChan carves channels from.
	spare []Chan[T]
}

// chanChunk is how many channels NewChan carves from one allocation: 64
// Chans of 48 bytes are 3 072, exactly a malloc size class.
const chanChunk = 64

// wireNode is one node's fast-path lanes: next releases a backlogged
// channel at the node's transmit horizon; intra and wan deliver one
// latency later.
type wireNode[T any] struct {
	next       *sim.Lane[*Chan[T]]
	intra, wan *sim.Lane[delivery[T]]
}

// NewWire builds the lanes that carry messages of type T over n to
// deliver.
func NewWire[T any](n *Network, deliver func(T)) *Wire[T] {
	k := n.k
	w := &Wire[T]{net: n, deliver: deliver, nodes: make([]wireNode[T], len(n.nodes))}
	arrive, nth := w.arrive, w.nthDelivery
	w.bulkWan = sim.NewLane(k, arrive)
	for i := range w.nodes {
		w.nodes[i] = wireNode[T]{
			next:  sim.NewLane(k, (*Chan[T]).startNext),
			intra: sim.NewRunLane(k, arrive, nth),
			wan:   sim.NewRunLane(k, arrive, nth),
		}
	}
	w.bulkIntra = make([]*sim.Lane[delivery[T]], len(n.topo.Clusters))
	for i := range w.bulkIntra {
		w.bulkIntra[i] = sim.NewLane(k, arrive)
	}
	return w
}

// A Chan is a FIFO, reliable, unidirectional stream of T messages between
// two nodes — the simulated analogue of one TCP connection between two MPI
// peers.  Messages on a channel are transmitted one at a time in order
// (back-to-back messages pipeline: the next transmission starts as soon as
// the previous one leaves the bottleneck, not after its delivery), so the
// FIFO property both checkpointing protocols assume holds by construction.
// Distinct channels between the same pair of nodes compete for bandwidth
// like distinct connections.
//
// A pair that carries only small control messages needs no channel
// (Wire.PostRun), so a Chan is opened by a pair's first payload, and the
// Chan itself holds only what every channel needs.  The backlog and the
// bulk Flow live in a chanSide, allocated the first time the channel
// backs up or sends a message of smallCutoff bytes or more.  A small
// message schedules no event to free the channel: the channel keeps the
// key that event would have had (release), is busy until that key has
// passed, and has the event scheduled at that key only when a message
// queues behind it.  A channel that only ever sends small messages on an
// idle path is this one record, a 64th of a chunk, and costs one delivery
// per message.
type Chan[T any] struct {
	w    *Wire[T]
	side *chanSide[T] // nil until the channel first backs up or sends bulk
	// release is the key at which the small message in transmission
	// clears the sender's NIC; the zero key has passed from the start.
	release  sim.Key
	src, dst int32
	bulk     bool // a bulk message is transmitting
	closed   bool
}

// chanSide is the state only a backlogged or bulk-sending channel needs.
type chanSide[T any] struct {
	// queue holds the messages waiting behind the one in transmission.
	queue sim.Queue[message[T]]
	// flow transmits the channel's bulk messages, one at a time: allocated
	// on the first and reset for each later one.  inflight is the message
	// it is transmitting.
	flow     *Flow
	inflight T
}

type message[T any] struct {
	payload T
	size    Bytes
}

// delivery is a message on its way to the receiver (see post and
// transferred): the lanes carry it by value from transmission to arrive.
// c is nil for a posted message, which has no channel.
type delivery[T any] struct {
	c       *Chan[T]
	payload T
	size    Bytes
}

// SetDrop names the callback that hears of each message a channel drops
// undelivered: on Close, the one in transmission and then the queue in
// order, and later each delivery that arrives at the closed channel.  It
// runs inside Close or the arrival event and must not send.
func (w *Wire[T]) SetDrop(drop func(T)) { w.drop = drop }

// SetPosts names what posted messages need: nth(v, i) is the i-th message
// of a run whose first is v (PostRun), and stale(m) tells, when a posted
// message m arrives, whether the channel it would have had has closed
// since it was sent, so that it is dropped as that channel's would be.
func (w *Wire[T]) SetPosts(nth func(v T, i int) T, stale func(m T) bool) {
	w.nth, w.stale = nth, stale
}

// PostRun transmits n small messages (each under smallCutoff bytes) of one
// size back to back from node src without a channel: the i-th is nth(v, i)
// (SetPosts), and each goes to a node on the path class of dst
// (SameSmallPath).  Each is timed, keyed and delivered exactly as a small
// message sent then on an idle channel (Chan.Send): the keys n such sends
// would draw are drawn in one step, and the n deliveries are one lane
// record.  It returns the run of keys at which the messages clear src's
// NIC: a channel opened on one of their paths before its key passes must
// Inherit it to stay FIFO behind the message.
func (w *Wire[T]) PostRun(src, dst int, v T, size Bytes, n int) sim.Run {
	if size >= smallCutoff {
		panic(fmt.Sprintf("simnet: posting %d bytes, not under the small-message cutoff %d", size, smallCutoff))
	}
	return w.post(nil, src, dst, v, size, n)
}

// post transmits n small messages back to back from node src, on c or,
// when c is nil, without a channel: the unloaded path bandwidth,
// serialized against the node's transmit horizon.  It reserves the keys at
// which they clear the NIC and queues their deliveries, one latency later,
// on the node's lane for their latency class (sim.Lane), so a burst of
// small messages holds one heap entry per lane, and a run of them one lane
// record.
func (w *Wire[T]) post(c *Chan[T], src, dst int, v T, size Bytes, n int) sim.Run {
	nw := w.net
	svc := nw.smallService(src, dst, size)
	node := nw.nodes[src]
	start := max(node.smallTxBusy, nw.k.Now())
	node.smallTxBusy = start + sim.Time(n)*svc
	// Each message draws its release key, then its delivery's.
	rel := nw.k.ReserveRun(start+svc, svc, n, 2)
	lane, lat := w.deliveryLane(src, dst)
	del := rel.Offset(lat, 1)
	if n == 1 {
		lane.AtKey(del.Key(0), delivery[T]{c, v, size})
	} else {
		lane.AtRun(del, delivery[T]{c, v, size})
	}
	return rel
}

// nthDelivery is the i-th delivery of a posted run.
func (w *Wire[T]) nthDelivery(d delivery[T], i int) delivery[T] {
	d.payload = w.nth(d.payload, i)
	return d
}

// deliveryLane returns the lane a small message from src to dst is
// delivered on and the latency it adds: ready never decreases per node
// and the latency is one constant per class, so each lane is monotone.
func (w *Wire[T]) deliveryLane(src, dst int) (*sim.Lane[delivery[T]], sim.Time) {
	n := w.net
	lanes := &w.nodes[src]
	c := n.nodes[src].cluster
	if n.nodes[dst].cluster != c {
		return lanes.wan, n.topo.WanLatency
	}
	return lanes.intra, n.topo.Clusters[c].Latency
}

// NewChan opens a FIFO channel of T messages from node src to node dst.
// Channels are carved chanChunk to an allocation and never reused, so a
// closed channel stays closed for the deliveries still on their way.
func (w *Wire[T]) NewChan(src, dst int) *Chan[T] {
	if len(w.spare) == 0 {
		w.spare = make([]Chan[T], chanChunk)
	}
	c := &w.spare[0]
	w.spare = w.spare[1:]
	c.w, c.src, c.dst = w, int32(src), int32(dst)
	return c
}

// NewChannel opens a FIFO channel of untyped payloads from node src to
// node dst, on a Wire of its own that delivers to deliver.  It suits a
// probe or a test with a few channels; a simulation with many opens them
// on one typed Wire.
func (n *Network) NewChannel(src, dst int, deliver func(payload any)) *Chan[any] {
	return NewWire(n, deliver).NewChan(src, dst)
}

// Src returns the source node.
func (c *Chan[T]) Src() int { return int(c.src) }

// Dst returns the destination node.
func (c *Chan[T]) Dst() int { return int(c.dst) }

// Busy reports whether a message sent now would queue: one is in
// transmission and has not cleared the NIC.
func (c *Chan[T]) Busy() bool { return c.bulk || !c.w.net.k.Passed(c.release) }

// Inherit makes the channel busy until release has passed, as if the small
// message that clears the NIC at release had been sent on it: a channel
// opened on a path with a posted message still in transmission
// (Wire.PostRun) keeps its FIFO order behind it.  The channel must be
// idle.
func (c *Chan[T]) Inherit(release sim.Key) {
	if c.Busy() {
		panic("simnet: Inherit on a busy channel")
	}
	c.release = release
}

// Send enqueues a message.  It never blocks; the sender-side cost of
// copying into the transmit path is modelled by the caller (device service
// profiles), not here.
func (c *Chan[T]) Send(payload T, size Bytes) {
	if c.closed {
		return // messages to/from a dead node vanish, like a broken socket
	}
	m := message[T]{payload, size}
	if !c.bulk && c.w.net.k.Passed(c.release) {
		// Idle channel: transmit directly.  A channel that never backs up
		// (one marker per wave) never allocates a queue.
		c.start(m)
		return
	}
	q := &c.sideState().queue
	q.Push(m)
	if q.Len() == 1 && !c.bulk {
		// The first message behind a small one: its release is needed now.
		c.w.nodes[c.src].next.AtKey(c.release, c)
	}
}

// sideState returns the channel's side state, allocating it on first use.
func (c *Chan[T]) sideState() *chanSide[T] {
	if c.side == nil {
		c.side = new(chanSide[T])
	}
	return c.side
}

// startNext begins transmitting the next queued message, if any, once the
// one in transmission has cleared the NIC: it runs when a bulk message is
// transferred and, on the node's next lane, at a backlogged channel's
// release key.  A small message that still has a backlog behind it has
// its own release scheduled at once.
func (c *Chan[T]) startNext() {
	c.bulk = false
	if c.closed || c.side == nil || c.side.queue.Len() == 0 {
		return
	}
	c.start(c.side.queue.Pop())
	if !c.bulk && c.side.queue.Len() > 0 {
		c.w.nodes[c.src].next.AtKey(c.release, c)
	}
}

func (c *Chan[T]) start(m message[T]) {
	if m.size < smallCutoff {
		c.startSmall(m)
		return
	}
	c.bulk = true
	n := c.w.net
	src, dst := int(c.src), int(c.dst)
	side := c.sideState()
	f := side.flow
	if f == nil {
		f = &Flow{net: n, latency: n.Latency(src, dst), payload: flowOwner(c)}
		if n.Cluster(src) != n.Cluster(dst) {
			f.cap = n.topo.WanFlowCap
		}
		side.flow = f
	}
	n.flowSeq++
	f.seq = n.flowSeq
	f.size = m.size
	side.inflight = m.payload
	n.transmit(f, src, dst)
}

// startSmall transmits a message on the fast path (Wire.post); the key
// at which it clears the NIC frees the channel.
func (c *Chan[T]) startSmall(m message[T]) {
	c.release = c.w.post(c, int(c.src), int(c.dst), m.payload, m.size, 1).Key(0)
}

// transferred runs when the last byte of the channel's bulk message clears
// the bottleneck: its delivery rides a bulk lane to at, which frees the
// flow, and the channel's next message may start transmitting at once.
func (c *Chan[T]) transferred(at sim.Time, size Bytes) {
	w := c.w
	n := w.net
	lane := w.bulkWan
	if src := n.nodes[c.src].cluster; src == n.nodes[c.dst].cluster {
		lane = w.bulkIntra[src]
	}
	side := c.side
	lane.At(at, delivery[T]{c, side.inflight, size})
	var zero T
	side.inflight = zero
	c.startNext()
}

// arrive fires one path latency after a message's last byte left and
// hands the payload to the receiver, unless its channel has closed (a
// posted message: unless it is stale).
func (w *Wire[T]) arrive(d delivery[T]) {
	if c := d.c; c != nil && c.closed || c == nil && w.stale != nil && w.stale(d.payload) {
		w.dropped(d.payload)
		return
	}
	n := w.net
	n.BytesMoved += d.size
	n.FlowsDone++
	w.deliver(d.payload)
}

// Close tears the channel down, dropping queued and in-flight messages —
// the simulated analogue of a socket reset when a process dies.  Cancelling
// the flow stops a bulk message still transmitting; a delivery already on
// a lane is dropped there, because the channel is closed.  The Wire's drop
// callback hears of each dropped message (SetDrop).
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	side := c.side
	if side == nil {
		return
	}
	if c.bulk {
		c.w.dropped(side.inflight)
	}
	for i := 0; i < side.queue.Len(); i++ {
		c.w.dropped(side.queue.At(i).payload)
	}
	side.queue.Reset()
	var zero T
	side.inflight = zero
	if side.flow != nil {
		side.flow.Cancel()
	}
}

// dropped tells the Wire's drop callback, if any, of a message that will
// not be delivered.
func (w *Wire[T]) dropped(payload T) {
	if w.drop != nil {
		w.drop(payload)
	}
}
