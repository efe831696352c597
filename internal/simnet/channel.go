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
type Channel struct {
	net     *Network
	src     int
	dst     int
	deliver func(payload any)
	// queue is a sliding-window ring: startNext advances qhead and the
	// array is reset once drained, so a steady send/transmit cadence
	// reuses the same backing array instead of reallocating per message.
	queue  []message
	qhead  int
	busy   bool
	inFly  *Flow
	closed bool

	// MsgsSent and BytesSent accumulate per-channel statistics.
	MsgsSent  int
	BytesSent Bytes
}

type message struct {
	payload any
	size    Bytes
}

// smallMsg is a pooled fast-path delivery record (see startSmall): it
// carries the payload to the delivery event without a per-message closure
// and returns to the network's pool as it is consumed.
//
// Lifetime rule (its declarations are checked by the pooled-holder rule
// of lint_test.go at the repo root): a *smallMsg is valid from getSmall
// until smallDeliver recycles it — the delivery event is the sole
// reference; storing the pointer anywhere that survives delivery aliases
// the next message's record.
type smallMsg struct {
	c       *Channel
	payload any
	size    Bytes
}

func (n *Network) getSmall() *smallMsg {
	if last := len(n.smallPool) - 1; last >= 0 {
		sm := n.smallPool[last]
		n.smallPool = n.smallPool[:last]
		return sm
	}
	return &smallMsg{}
}

// NewChannel opens a FIFO message channel from node src to node dst.
// deliver runs as an event callback when each message arrives; it must not
// block (hand off to an LP through a sim.Cond if needed).
func (n *Network) NewChannel(src, dst int, deliver func(payload any)) *Channel {
	return &Channel{net: n, src: src, dst: dst, deliver: deliver}
}

// Src returns the source node.
func (c *Channel) Src() int { return c.src }

// Dst returns the destination node.
func (c *Channel) Dst() int { return c.dst }

// Send enqueues a message.  It never blocks; the sender-side cost of
// copying into the transmit path is modelled by the caller (device service
// profiles), not here.
func (c *Channel) Send(payload any, size Bytes) {
	if c.closed {
		return // messages to/from a dead node vanish, like a broken socket
	}
	c.MsgsSent++
	c.BytesSent += size
	m := message{payload, size}
	if c.busy {
		c.queue = append(c.queue, m)
		return
	}
	// Idle channel: transmit directly.  A channel that never backs up (one
	// marker per wave) never allocates a queue.
	c.start(m)
}

// startNext begins transmitting the next queued message, or marks the
// channel idle when there is none.
func (c *Channel) startNext() {
	if c.closed || c.qhead == len(c.queue) {
		c.busy = false
		return
	}
	m := c.queue[c.qhead]
	c.queue[c.qhead] = message{} // drop the payload reference
	c.qhead++
	if c.qhead == len(c.queue) {
		c.queue = c.queue[:0]
		c.qhead = 0
	}
	c.start(m)
}

func (c *Channel) start(m message) {
	c.busy = true
	if m.size < smallCutoff {
		c.startSmall(m)
		return
	}
	n := c.net
	n.flowSeq++
	f := &Flow{
		net:       n,
		seq:       n.flowSeq,
		remaining: float64(m.size),
		size:      m.size,
		last:      n.k.Now(),
		latency:   n.Latency(c.src, c.dst),
		ch:        c,
		payload:   m.payload,
	}
	c.inFly = f
	if c.src == c.dst {
		f.doneEv = n.k.AfterArg(0, flowXferComplete, f)
		return
	}
	n.pathInto(f, c.src, c.dst)
	if n.Cluster(c.src) != n.Cluster(c.dst) {
		f.cap = n.topo.WanFlowCap
	}
	n.attach(f)
	n.reschedule()
}

// startSmall transmits a message on the fast path: the unloaded path
// bandwidth, serialized against the sender node's transmit horizon.  Both
// of its events go through the sender node's lanes (sim.Lane), so a burst
// of small messages holds one heap entry per lane, not two per message.
func (c *Channel) startSmall(m message) {
	c.inFly = nil
	n := c.net
	now := n.k.Now()
	var svc sim.Time
	if c.src != c.dst {
		svc = sim.Time(float64(m.size) / n.Bandwidth(c.src, c.dst) * 1e9)
	}
	node := n.nodes[c.src]
	ready := node.smallTxBusy
	if ready < now {
		ready = now
	}
	ready += svc
	node.smallTxBusy = ready
	node.smallNext.At(ready, c)
	sm := n.getSmall()
	sm.c, sm.payload, sm.size = c, m.payload, m.size
	// ready never decreases per node and the latency is one constant per
	// class, so each delivery lane's times are monotone too.
	lane, lat := node.smallIntra, n.topo.Clusters[node.cluster].Latency
	if n.nodes[c.dst].cluster != node.cluster {
		lane, lat = node.smallWan, n.topo.WanLatency
	}
	lane.At(ready+lat, sm)
}

// smallNext fires when a fast-path message clears the transmit horizon:
// the channel may start its next message.
func smallNext(x any) {
	c := x.(*Channel)
	if !c.closed {
		c.startNext()
	}
}

// smallDeliver fires one path latency later and hands the payload to the
// receiver, recycling the record.
func smallDeliver(x any) {
	sm := x.(*smallMsg)
	c, payload, size := sm.c, sm.payload, sm.size
	sm.c, sm.payload = nil, nil
	n := c.net
	n.smallPool = append(n.smallPool, sm)
	if c.closed {
		return
	}
	n.BytesMoved += size
	n.FlowsDone++
	c.deliver(payload)
}

// Close tears the channel down, dropping queued and in-flight messages —
// the simulated analogue of a socket reset when a process dies.
func (c *Channel) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.queue = nil
	c.qhead = 0
	c.busy = false
	if c.inFly != nil {
		c.inFly.Cancel()
		c.inFly = nil
	}
}
