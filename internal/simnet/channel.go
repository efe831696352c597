package simnet

import "ftckpt/internal/sim"

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
// callback: it owns the event lanes its channels' messages ride from
// transmission to delivery, and it carves its channels from chunks.  Per
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
	drop  func(T)
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
	w := &Wire[T]{net: n, deliver: deliver, nodes: make([]wireNode[T], len(n.nodes)), bulkWan: sim.NewLane(k, arrive[T])}
	for i := range w.nodes {
		w.nodes[i] = wireNode[T]{
			next:  sim.NewLane(k, (*Chan[T]).startNext),
			intra: sim.NewLane(k, arrive[T]),
			wan:   sim.NewLane(k, arrive[T]),
		}
	}
	w.bulkIntra = make([]*sim.Lane[delivery[T]], len(n.topo.Clusters))
	for i := range w.bulkIntra {
		w.bulkIntra[i] = sim.NewLane(k, arrive[T])
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
// A marker flood opens a channel per ordered pair and sends one small
// message on most of them, so the Chan itself holds only what every
// channel needs.  The backlog and the bulk Flow live in a chanSide,
// allocated the first time the channel backs up or sends a message of
// smallCutoff bytes or more.  A small message schedules no event to free
// the channel: the channel keeps the key that event would have had
// (release), is busy until that key has passed, and has the event
// scheduled at that key only when a message queues behind it.  A channel
// that only ever sends small messages on an idle path is this one record,
// a 64th of a chunk, and costs one delivery per message.
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

// delivery is a channel message on its way to the receiver (see startSmall
// and transferred): the lanes carry it by value from transmission to
// arrive.
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

// startSmall transmits a message on the fast path: the unloaded path
// bandwidth, serialized against the sender node's transmit horizon.  It
// reserves the key at which the message clears the NIC, which frees the
// channel, and schedules the delivery one latency later on the sender
// node's lane for its latency class (sim.Lane), so a burst of small
// messages holds one heap entry per lane, not one per message.
func (c *Chan[T]) startSmall(m message[T]) {
	w := c.w
	n := w.net
	now := n.k.Now()
	var svc sim.Time
	if c.src != c.dst {
		svc = sim.Time(float64(m.size) / n.Bandwidth(int(c.src), int(c.dst)) * 1e9)
	}
	node := n.nodes[c.src]
	ready := node.smallTxBusy
	if ready < now {
		ready = now
	}
	ready += svc
	node.smallTxBusy = ready
	c.release = n.k.Reserve(ready)
	lanes := &w.nodes[c.src]
	// ready never decreases per node and the latency is one constant per
	// class, so each delivery lane's times are monotone too.
	lane, lat := lanes.intra, n.topo.Clusters[node.cluster].Latency
	if n.nodes[c.dst].cluster != node.cluster {
		lane, lat = lanes.wan, n.topo.WanLatency
	}
	lane.At(ready+lat, delivery[T]{c, m.payload, m.size})
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
// hands the payload to the receiver.
func arrive[T any](d delivery[T]) {
	c := d.c
	if c.closed {
		c.dropped(d.payload)
		return
	}
	n := c.w.net
	n.BytesMoved += d.size
	n.FlowsDone++
	c.w.deliver(d.payload)
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
		c.dropped(side.inflight)
	}
	for i := 0; i < side.queue.Len(); i++ {
		c.dropped(side.queue.At(i).payload)
	}
	side.queue.Reset()
	var zero T
	side.inflight = zero
	if side.flow != nil {
		side.flow.Cancel()
	}
}

// dropped tells the Wire's drop callback, if any, of a message the closed
// channel will not deliver.
func (c *Chan[T]) dropped(payload T) {
	if c.w.drop != nil {
		c.w.drop(payload)
	}
}
