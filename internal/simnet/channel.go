package simnet

import "ftckpt/internal/sim"

// smallCutoff is the size below which a message takes the fast path: its
// transfer time is charged against a per-node transmit horizon (so bursts
// of control messages still serialize on the NIC) instead of joining the
// fluid bandwidth-sharing machinery.  Without this, an n-process marker
// flood creates O(n²) simultaneous flows whose every arrival reschedules
// every flow on the shared NICs — quadratic simulation cost for messages
// whose bandwidth footprint is negligible.  Messages at or above the
// cutoff (application payloads, checkpoint images) use fluid flows and
// contend normally.
const smallCutoff = 4 << 10

// A Channel is a FIFO, reliable, unidirectional message stream between two
// nodes — the simulated analogue of one TCP connection between two MPI
// peers.  Messages on a channel are transmitted one at a time in order
// (back-to-back messages pipeline: the next transmission starts as soon as
// the previous one leaves the bottleneck, not after its delivery), so the
// FIFO property both checkpointing protocols assume holds by construction.
// Distinct channels between the same pair of nodes compete for bandwidth
// like distinct connections.
//
// A marker flood opens a channel per ordered pair and sends one small
// message on most of them, so the Channel itself holds only what every
// channel needs.  The backlog and the bulk Flow live in a chanSide,
// allocated the first time the channel backs up or sends a message of
// smallCutoff bytes or more: a channel that only ever sends small messages
// on an idle path is this one record.
type Channel struct {
	net      *Network
	deliver  func(payload any)
	side     *chanSide // nil until the channel first backs up or sends bulk
	src, dst int32
	busy     bool
	closed   bool
}

// chanSide is the state only a backlogged or bulk-sending channel needs.
type chanSide struct {
	// queue holds the messages waiting behind the one in transmission.
	queue sim.Queue[message]
	// flow transmits the channel's bulk messages, one at a time: allocated
	// on the first and reset for each later one.
	flow *Flow
}

type message struct {
	payload any
	size    Bytes
}

// smallMsg is a channel message's delivery (see startSmall and
// Flow.transferComplete): the delivery lanes carry it by value from
// transmission to smallDeliver.
type smallMsg struct {
	c       *Channel
	payload any
	size    Bytes
}

// NewChannel opens a FIFO message channel from node src to node dst.
// deliver runs as an event callback when each message arrives; it must not
// block (hand off to an LP through a sim.Cond if needed).
func (n *Network) NewChannel(src, dst int, deliver func(payload any)) *Channel {
	return &Channel{net: n, src: int32(src), dst: int32(dst), deliver: deliver}
}

// Src returns the source node.
func (c *Channel) Src() int { return int(c.src) }

// Dst returns the destination node.
func (c *Channel) Dst() int { return int(c.dst) }

// Send enqueues a message.  It never blocks; the sender-side cost of
// copying into the transmit path is modelled by the caller (device service
// profiles), not here.
func (c *Channel) Send(payload any, size Bytes) {
	if c.closed {
		return // messages to/from a dead node vanish, like a broken socket
	}
	m := message{payload, size}
	if c.busy {
		c.sideState().queue.Push(m)
		return
	}
	// Idle channel: transmit directly.  A channel that never backs up (one
	// marker per wave) never allocates a queue.
	c.start(m)
}

// sideState returns the channel's side state, allocating it on first use.
func (c *Channel) sideState() *chanSide {
	if c.side == nil {
		c.side = new(chanSide)
	}
	return c.side
}

// startNext begins transmitting the next queued message, or marks the
// channel idle when there is none.
func (c *Channel) startNext() {
	if c.closed || c.side == nil || c.side.queue.Len() == 0 {
		c.busy = false
		return
	}
	c.start(c.side.queue.Pop())
}

func (c *Channel) start(m message) {
	c.busy = true
	if m.size < smallCutoff {
		c.startSmall(m)
		return
	}
	n := c.net
	src, dst := int(c.src), int(c.dst)
	side := c.sideState()
	f := side.flow
	if f == nil {
		f = &Flow{net: n, latency: n.Latency(src, dst), ch: c}
		if n.Cluster(src) != n.Cluster(dst) {
			f.cap = n.topo.WanFlowCap
		}
		side.flow = f
	}
	n.flowSeq++
	f.seq = n.flowSeq
	f.remaining = float64(m.size)
	f.size = m.size
	f.rate = 0
	f.last = n.k.Now()
	f.payload = m.payload
	n.transmit(f, src, dst)
}

// startSmall transmits a message on the fast path: the unloaded path
// bandwidth, serialized against the sender node's transmit horizon.  Both
// of its events go through the sender node's lanes (sim.Lane), so a burst
// of small messages holds one heap entry per lane, not two per message.
func (c *Channel) startSmall(m message) {
	n := c.net
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
	node.smallNext.At(ready, c)
	// ready never decreases per node and the latency is one constant per
	// class, so each delivery lane's times are monotone too.
	lane, lat := node.smallIntra, n.topo.Clusters[node.cluster].Latency
	if n.nodes[c.dst].cluster != node.cluster {
		lane, lat = node.smallWan, n.topo.WanLatency
	}
	lane.At(ready+lat, smallMsg{c, m.payload, m.size})
}

// smallNext fires when a fast-path message clears the transmit horizon:
// the channel may start its next message.
func smallNext(c *Channel) {
	if !c.closed {
		c.startNext()
	}
}

// smallDeliver fires one path latency later and hands the payload to the
// receiver.
func smallDeliver(sm smallMsg) {
	c := sm.c
	if c.closed {
		return
	}
	n := c.net
	n.BytesMoved += sm.size
	n.FlowsDone++
	c.deliver(sm.payload)
}

// Close tears the channel down, dropping queued and in-flight messages —
// the simulated analogue of a socket reset when a process dies.  Cancelling
// the flow stops a bulk message still transmitting; a delivery already on
// a lane is dropped there, because the channel is closed.
func (c *Channel) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.busy = false
	if side := c.side; side != nil {
		side.queue.Reset()
		if side.flow != nil {
			side.flow.Cancel()
		}
	}
}
