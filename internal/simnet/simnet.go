// Package simnet is a flow-level network model on top of the sim kernel.
//
// The model is the one used by flow-level grid simulators: every transfer
// (a point-to-point message or a bulk checkpoint-image stream) is a fluid
// flow that crosses a set of capacity resources — the sender's NIC transmit
// side, the receiver's NIC receive side and, between clusters, each
// cluster's WAN uplink.  Each resource divides its bandwidth equally among
// the flows crossing it and a flow progresses at the minimum of its shares
// (a min-share approximation of max-min fairness).  Whenever a flow starts
// or finishes, the remaining bytes of every flow sharing a resource with it
// are settled at the old rate and their completion events are rescheduled
// at the new rate.  Delivery happens one path latency after the last byte
// is transmitted.
//
// This reproduces the effects the paper measures: checkpoint-image
// transfers competing with application traffic for the NIC, two processes
// sharing one NIC on dual-processor nodes, and the ~20x bandwidth / two
// orders of magnitude latency gap between intra- and inter-cluster links.
//
// Channels (channel.go) add FIFO ordering on top of flows: a Channel
// serializes its messages (one in flight at a time), so per-channel FIFO —
// which both checkpointing protocols require — holds by construction.
// Because it sends one message at a time, a channel owns one transmit
// Flow, allocated on its first bulk message and reset for every later one,
// and its deliveries ride the network's delivery lanes by value.
//
// The implementation keeps the per-message hot path allocation-free: flow
// membership lives in seq-ordered slices (not maps), the affected set of a
// reschedule is an epoch-marked scratch slice reused across calls, a
// flow's resource path is a fixed-size array, and every pending flow
// completion lives in one keyed timer set (sim.Timers), so a reschedule
// re-arms each affected flow in place in the set's own heap and leaves at
// most one dead event behind.
package simnet

import (
	"fmt"
	"math"
	"time"

	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

// Bytes counts payload sizes.
type Bytes = int64

// Rate is a bandwidth in bytes per second.
type Rate = float64

// Common size units.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
)

// ClusterSpec describes one homogeneous cluster.
type ClusterSpec struct {
	Name    string
	Nodes   int
	NICBW   Rate     // per-node NIC bandwidth, each direction
	Latency sim.Time // one-way intra-cluster message latency
}

// Topology describes the whole platform.
type Topology struct {
	Clusters   []ClusterSpec
	WanLatency sim.Time // one-way latency between any two clusters
	WanBW      Rate     // capacity of each cluster's WAN uplink
	// WanFlowCap caps each individual inter-cluster flow's throughput
	// (TCP window / RTT limiting on high-latency paths) independently of
	// the shared uplink capacity; 0 disables.  This is what makes a
	// single stream ~20x slower between clusters than inside one, as the
	// paper measures with NetPIPE, without starving aggregate traffic.
	WanFlowCap Rate
}

// TotalNodes returns the number of nodes across all clusters.
func (t Topology) TotalNodes() int {
	n := 0
	for _, c := range t.Clusters {
		n += c.Nodes
	}
	return n
}

// resource is a capacity shared equally by the flows crossing it.  The
// member list is kept in flow-creation (seq) order: flows attach at
// creation and seq is monotonic, so plain appends preserve it and ordered
// removal keeps it — which makes the affected set of a reschedule
// near-sorted for free.
type resource struct {
	name  string
	bw    Rate
	flows []*Flow
}

func (r *resource) share() Rate {
	if len(r.flows) == 0 {
		return r.bw
	}
	return r.bw / Rate(len(r.flows))
}

// node is one machine with two independent NIC directions.
type node struct {
	id      int
	cluster int
	tx, rx  *resource
	// smallTxBusy is the fast-path transmit horizon: small messages
	// serialize against it instead of joining the fluid flow machinery.
	smallTxBusy sim.Time
	// The fast path's event lanes: smallNext frees the sending channel at
	// the transmit horizon; smallIntra and smallWan deliver one latency
	// later, one lane per latency class so each stays monotone.
	smallNext            *sim.Lane[*Channel]
	smallIntra, smallWan *sim.Lane[smallMsg]
}

// maxPathRes is the most resources a flow can cross: src NIC tx, dst NIC
// rx, and (between clusters) each side's WAN uplink.
const maxPathRes = 4

// Flow is an in-progress bulk transfer.
type Flow struct {
	// Timer is the flow's place in Network.timers: armed from the start
	// of its transmission until its last byte clears the bottleneck.
	sim.Timer
	nres      uint8
	cancelled bool
	net       *Network
	seq       uint64 // creation order, for deterministic rescheduling
	res       [maxPathRes]*resource
	cap       Rate    // per-flow rate ceiling (WAN), 0 = none
	remaining float64 // bytes
	size      Bytes
	rate      Rate
	last      sim.Time
	latency   sim.Time
	fn        func(any) // StartFlow API completion, called with payload; nil for channel flows
	ch        *Channel  // owning channel for bulk channel messages
	payload   any       // delivered payload for channel flows, fn's argument otherwise
	mark      uint64    // affected-set epoch (see Network.addAffected)
}

// Network is the simulated platform.
type Network struct {
	k     *sim.Kernel
	topo  Topology
	nodes []*node
	// wanUp[i] is cluster i's uplink, nil for single-cluster topologies.
	wanUp   []*resource
	flowSeq uint64

	// timers holds every pending flow completion.
	timers *sim.Timers[*Flow]
	// bulkIntra[c] carries the deliveries of channel flows inside cluster
	// c and bulkWan those between clusters: each adds one constant latency
	// to a completion time that never decreases, so each lane is monotone.
	bulkIntra []*sim.Lane[smallMsg]
	bulkWan   *sim.Lane[smallMsg]

	// affected is the scratch set of flows whose rate may have changed in
	// the current attach/detach; epoch-marking makes membership tests O(1)
	// without clearing per-flow state between calls.
	affected []*Flow
	epoch    uint64

	// met, when set, mirrors delivery statistics into the observability
	// registry ("net.flows", "net.bytes_moved"); nil-safe.
	met *obs.Metrics

	// BytesMoved and FlowsDone accumulate delivery statistics.
	BytesMoved Bytes
	FlowsDone  int
}

// New builds the platform described by topo on kernel k.
func New(k *sim.Kernel, topo Topology) *Network {
	n := &Network{
		k:       k,
		topo:    topo,
		timers:  sim.NewTimers(k, (*Flow).transferComplete),
		bulkWan: sim.NewLane(k, smallDeliver),
	}
	for ci, c := range topo.Clusters {
		if c.Nodes <= 0 {
			panic(fmt.Sprintf("simnet: cluster %q has %d nodes", c.Name, c.Nodes))
		}
		if c.NICBW <= 0 {
			panic(fmt.Sprintf("simnet: cluster %q has non-positive NIC bandwidth", c.Name))
		}
		for i := 0; i < c.Nodes; i++ {
			id := len(n.nodes)
			n.nodes = append(n.nodes, &node{
				id:      id,
				cluster: ci,
				tx:      &resource{name: fmt.Sprintf("n%d.tx", id), bw: c.NICBW},
				rx:      &resource{name: fmt.Sprintf("n%d.rx", id), bw: c.NICBW},

				smallNext:  sim.NewLane(k, smallNext),
				smallIntra: sim.NewLane(k, smallDeliver),
				smallWan:   sim.NewLane(k, smallDeliver),
			})
		}
		n.bulkIntra = append(n.bulkIntra, sim.NewLane(k, smallDeliver))
	}
	if len(topo.Clusters) > 1 {
		if topo.WanBW <= 0 {
			panic("simnet: multi-cluster topology needs WanBW > 0")
		}
		n.wanUp = make([]*resource, len(topo.Clusters))
		for ci := range topo.Clusters {
			n.wanUp[ci] = &resource{name: fmt.Sprintf("wan%d", ci), bw: topo.WanBW}
		}
	}
	return n
}

// Kernel returns the simulation kernel the network runs on.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// SetMetrics attaches the observability registry delivery statistics are
// mirrored into (nil disables).
func (n *Network) SetMetrics(m *obs.Metrics) { n.met = m }

// NumNodes returns the number of nodes in the platform.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Cluster returns the cluster index of a node.
func (n *Network) Cluster(nodeID int) int { return n.nodes[nodeID].cluster }

// Latency returns the one-way latency between two nodes.
func (n *Network) Latency(src, dst int) sim.Time {
	a, b := n.nodes[src], n.nodes[dst]
	if a.cluster == b.cluster {
		return n.topo.Clusters[a.cluster].Latency
	}
	return n.topo.WanLatency
}

// Bandwidth returns the unloaded bottleneck bandwidth of one src→dst flow.
func (n *Network) Bandwidth(src, dst int) Rate {
	a, b := n.nodes[src], n.nodes[dst]
	bw := a.tx.bw
	if b.rx.bw < bw {
		bw = b.rx.bw
	}
	if a.cluster != b.cluster {
		if u := n.wanUp[a.cluster].bw; u < bw {
			bw = u
		}
		if u := n.wanUp[b.cluster].bw; u < bw {
			bw = u
		}
		if wc := n.topo.WanFlowCap; wc > 0 && wc < bw {
			bw = wc
		}
	}
	return bw
}

// pathInto fills the flow's resource array with the capacities a src→dst
// transfer crosses.
func (n *Network) pathInto(f *Flow, src, dst int) {
	a, b := n.nodes[src], n.nodes[dst]
	f.res[0], f.res[1] = a.tx, b.rx
	f.nres = 2
	if a.cluster != b.cluster {
		f.res[2], f.res[3] = n.wanUp[a.cluster], n.wanUp[b.cluster]
		f.nres = 4
	}
}

// StartFlow begins a bulk transfer of size bytes from node src to node dst.
// onDone runs as an event one path latency after the last byte is
// transmitted.  A zero-size flow pays only the latency.  Must be called
// from an LP or event callback.
func (n *Network) StartFlow(src, dst int, size Bytes, onDone func()) *Flow {
	return n.StartFlowCapped(src, dst, size, 0, onDone)
}

// StartFlowCapped is StartFlow with a per-flow rate ceiling (0 = none) —
// used for transfers paced at the sender, like MPICH-V's daemon
// interleaving image shipping with message handling.
func (n *Network) StartFlowCapped(src, dst int, size Bytes, cap Rate, onDone func()) *Flow {
	if onDone == nil {
		return n.StartFlowArg(src, dst, size, cap, nil, nil)
	}
	return n.StartFlowArg(src, dst, size, cap, callFunc, onDone)
}

func callFunc(x any) { x.(func())() }

// StartFlowArg is StartFlowCapped with the completion in Kernel.AfterArg's
// shape: fn(arg) runs where onDone would.  A caller that already keeps a
// record per transfer passes a shared fn and the record, and binds no
// closure per flow.
func (n *Network) StartFlowArg(src, dst int, size Bytes, cap Rate, fn func(any), arg any) *Flow {
	n.flowSeq++
	f := &Flow{
		net:       n,
		seq:       n.flowSeq,
		cap:       cap,
		remaining: float64(size),
		size:      size,
		last:      n.k.Now(),
		latency:   n.Latency(src, dst),
		fn:        fn,
		payload:   arg,
	}
	if n.Cluster(src) != n.Cluster(dst) {
		if wc := n.topo.WanFlowCap; wc > 0 && (f.cap == 0 || wc < f.cap) {
			f.cap = wc
		}
	}
	n.transmit(f, src, dst)
	return f
}

// transmit starts a reset flow's transmission from node src to node dst.
func (n *Network) transmit(f *Flow, src, dst int) {
	if src == dst {
		// Loopback: latency only (applied by transferComplete); intra-node
		// copies are not network flows.
		n.timers.Arm(f, n.k.Now())
		n.timers.Sync()
		return
	}
	n.pathInto(f, src, dst)
	n.attach(f)
	n.reschedule()
}

// beginAffected starts a new affected-set collection.
func (n *Network) beginAffected() {
	n.epoch++
	n.affected = n.affected[:0]
}

// addAffected inserts a flow into the current affected set once.
func (n *Network) addAffected(g *Flow) {
	if g.mark == n.epoch {
		return
	}
	g.mark = n.epoch
	n.affected = append(n.affected, g)
}

// attach inserts the flow into its resources, collecting every flow whose
// rate may have changed (including f itself) into the affected set.
func (n *Network) attach(f *Flow) {
	n.beginAffected()
	n.addAffected(f)
	for _, r := range f.res[:f.nres] {
		for _, g := range r.flows {
			n.addAffected(g)
		}
		r.flows = append(r.flows, f)
	}
}

// detach removes the flow from its resources, collecting the remaining
// flows whose rate may have changed into the affected set.
func (n *Network) detach(f *Flow) {
	n.beginAffected()
	for i, r := range f.res[:f.nres] {
		for j, g := range r.flows {
			if g == f {
				r.flows = append(r.flows[:j], r.flows[j+1:]...)
				break
			}
		}
		for _, g := range r.flows {
			n.addAffected(g)
		}
		f.res[i] = nil
	}
	f.nres = 0
}

// reschedule settles progress and recomputes rate and completion time for
// every flow in the affected set, re-arming each completion in place, and
// syncs the timer set once.  In the min-share model a flow's rate depends
// only on the population counts of its own resources, so a single pass is
// exact for the resources whose membership changed.
func (n *Network) reschedule() {
	now := n.k.Now()
	// Iterate in flow-creation order — the per-resource lists are already
	// seq-ordered, so the concatenated set is near-sorted and an insertion
	// sort settles it without allocating.  (Collection order would make
	// equal-time completions fire in attach order, not creation order.)
	aff := n.affected
	for i := 1; i < len(aff); i++ {
		g := aff[i]
		j := i - 1
		for j >= 0 && aff[j].seq > g.seq {
			aff[j+1] = aff[j]
			j--
		}
		aff[j+1] = g
	}
	for _, g := range aff {
		if g.rate > 0 {
			g.remaining -= g.rate * (now - g.last).Seconds()
			if g.remaining < 0 {
				g.remaining = 0
			}
		}
		g.last = now
		rate := math.Inf(1)
		for _, r := range g.res[:g.nres] {
			if s := r.share(); s < rate {
				rate = s
			}
		}
		if g.cap > 0 && rate > g.cap {
			rate = g.cap
		}
		g.rate = rate
		var dt sim.Time
		if g.remaining > 0 && !math.IsInf(g.rate, 1) {
			dt = sim.Time(g.remaining / g.rate * float64(time.Second))
			if dt < 0 {
				dt = 0
			}
		}
		n.timers.Arm(g, now+dt)
	}
	n.timers.Sync()
}

// transferComplete fires when the last byte leaves the bottleneck; the
// delivery runs one path latency later.  A channel's delivery rides a
// delivery lane as a smallMsg, which frees the flow for the channel's next
// message.
func (f *Flow) transferComplete() {
	n := f.net
	f.remaining = 0
	if f.nres > 0 {
		n.detach(f)
		n.reschedule()
	}
	at := n.k.Now() + f.latency
	c := f.ch
	if c == nil {
		n.k.AtArg(at, deliverFlow, f)
		return
	}
	lane := n.bulkWan
	if src := n.nodes[c.src].cluster; src == n.nodes[c.dst].cluster {
		lane = n.bulkIntra[src]
	}
	lane.At(at, smallMsg{c, f.payload, f.size})
	f.payload = nil
	// The channel's next message may start transmitting as soon as this
	// one clears the bottleneck.
	c.startNext()
}

// deliverFlow runs one path latency after the last byte of a StartFlow
// transfer cleared the bottleneck: it settles the delivery statistics and
// hands the payload to the completion.
func deliverFlow(x any) {
	f := x.(*Flow)
	if f.cancelled {
		return
	}
	n := f.net
	n.BytesMoved += f.size
	n.FlowsDone++
	n.met.Inc("net.flows")
	n.met.Add("net.bytes_moved", f.size)
	if f.fn != nil {
		f.fn(f.payload)
	}
}

// Cancel aborts the flow; onDone will not run.  Safe to call at any point,
// including after completion (then it only suppresses a pending delivery).
func (f *Flow) Cancel() {
	f.cancelled = true
	n := f.net
	if !n.timers.Stop(f) {
		return // transmitted already
	}
	if f.nres > 0 {
		n.detach(f)
		n.reschedule()
		return
	}
	n.timers.Sync()
}
