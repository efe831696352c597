// Package simnet is a flow-level network model on top of the sim kernel.
//
// The model is the one used by flow-level grid simulators: every transfer
// (a point-to-point message or a bulk checkpoint-image stream) is a fluid
// flow that crosses a set of capacity resources — the sender's NIC transmit
// side, the receiver's NIC receive side and, between clusters, each
// cluster's WAN uplink.  Each resource divides its bandwidth equally among
// the flows crossing it and a flow progresses at the minimum of its shares
// (a min-share approximation of max-min fairness).  The flows a resource
// bottlenecks ride its virtual service clock (clock.go): whenever a flow
// starts or finishes, each resource it crosses settles its clock once at
// the old share and re-arms only its earliest finisher at the new one, and
// a flow's own bytes are settled only when its bottleneck moves to another
// resource.  Delivery happens one path latency after the last byte is
// transmitted.
//
// This reproduces the effects the paper measures: checkpoint-image
// transfers competing with application traffic for the NIC, two processes
// sharing one NIC on dual-processor nodes, and the ~20x bandwidth / two
// orders of magnitude latency gap between intra- and inter-cluster links.
//
// Channels (channel.go) add FIFO ordering on top of flows: a Chan[T]
// serializes its messages (one in flight at a time), so per-channel FIFO —
// which both checkpointing protocols require — holds by construction.
// Channels are generic over the message they carry: a Wire[T] owns the
// event lanes that carry T messages from transmission to delivery, each
// record holding the message by value, so a message type without heap
// pointers (mpi.WireMsg for a marker) is never allocated on its way, and
// the one callback they are delivered to.  Because it sends one message
// at a time, a channel owns one transmit Flow, allocated on its first bulk
// message and reset for every later one.  The Flow and the backlog sit in
// a side record allocated only when the channel first backs up or sends
// bulk, and a small message frees its channel by a reserved kernel key
// rather than an event (sim.Kernel.Reserve), so a channel that carries one
// marker per wave — most of the NP² channels of a flood — is a 48-byte
// slot of a 64-channel chunk and one delivery event per marker.
//
// The implementation keeps the per-message hot path allocation-free: flow
// membership lives in slices (not maps) that a flow indexes into from its
// fixed-size path array, the resources a flow change touched are an
// epoch-marked scratch slice reused across calls, and a flow completion is
// an ordinary kernel event, so a flow change cancels and re-arms at most
// one event per clock it touched.
package simnet

import (
	"fmt"

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

// node is one machine with two independent NIC directions.
type node struct {
	id      int
	cluster int
	tx, rx  *resource
	// smallTxBusy is the fast-path transmit horizon: small messages
	// serialize against it instead of joining the fluid flow machinery.
	// It is the node's, not a Wire's: every channel leaving the node
	// shares the one NIC.
	smallTxBusy sim.Time
}

// maxPathRes is the most resources a flow can cross: src NIC tx, dst NIC
// rx, and (between clusters) each side's WAN uplink.
const maxPathRes = 4

// Flow is an in-progress bulk transfer.
type Flow struct {
	// pos[i] is the flow's index in res[i].flows.
	pos       [maxPathRes]int32
	nres      uint8
	ride      int8 // index in res of the clock the flow rides; ownClock: its own
	cancelled bool
	net       *Network
	seq       uint64 // creation order: breaks ties between equal tags
	res       [maxPathRes]*resource
	cap       Rate // per-flow rate ceiling (WAN), 0 = none
	// tag is the clock's v at which the last byte leaves while the flow
	// rides res[ride]; on a clock of its own, the bytes left at since.
	tag     float64
	since   sim.Time
	size    Bytes
	latency sim.Time
	fn      func(any) // StartFlow API completion, called with payload; nil for channel flows
	// payload is fn's argument, or, when fn is nil, the flowOwner of a
	// bulk channel message: one field for both keeps a Flow, and so a
	// log store op that holds one, a size class smaller.
	payload any
}

// flowOwner is the channel a bulk channel message's Flow belongs to,
// whatever the type of message it carries.
type flowOwner interface {
	// transferred runs when the flow's last byte clears the bottleneck;
	// the message is delivered at at.
	transferred(at sim.Time, size Bytes)
}

// Network is the simulated platform.
type Network struct {
	k     *sim.Kernel
	topo  Topology
	nodes []*node
	// wanUp[i] is cluster i's uplink, nil for single-cluster topologies.
	wanUp   []*resource
	flowSeq uint64

	// own holds the pending completion of every flow on a clock of its
	// own (clock.go); a resource keeps its armed rider's.  It is never
	// ranged, so its order cannot reach a run.
	own map[*Flow]sim.EventID

	// epoch numbers flow changes; touched lists the resources the
	// current one has settled (resource.mark), and movers is the scratch
	// list of flows it moves between clocks.
	epoch   uint64
	touched []*resource
	movers  []*Flow

	// flows and bytesMoved mirror delivery statistics into the
	// observability registry ("net.flows", "net.bytes_moved") once
	// SetMetrics names one.
	flows, bytesMoved obs.Counter

	// BytesMoved and FlowsDone accumulate delivery statistics.
	BytesMoved Bytes
	FlowsDone  int
}

// New builds the platform described by topo on kernel k.
func New(k *sim.Kernel, topo Topology) *Network {
	n := &Network{
		k:    k,
		topo: topo,
		own:  make(map[*Flow]sim.EventID),
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
				tx:      newResource(fmt.Sprintf("n%d.tx", id), c.NICBW),
				rx:      newResource(fmt.Sprintf("n%d.rx", id), c.NICBW),
			})
		}
	}
	if len(topo.Clusters) > 1 {
		if topo.WanBW <= 0 {
			panic("simnet: multi-cluster topology needs WanBW > 0")
		}
		n.wanUp = make([]*resource, len(topo.Clusters))
		for ci := range topo.Clusters {
			n.wanUp[ci] = newResource(fmt.Sprintf("wan%d", ci), topo.WanBW)
		}
	}
	return n
}

// Kernel returns the simulation kernel the network runs on.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// SetMetrics attaches the observability registry delivery statistics are
// mirrored into (nil disables).
func (n *Network) SetMetrics(m *obs.Metrics) {
	n.flows, n.bytesMoved = m.CounterHandle("net.flows"), m.CounterHandle("net.bytes_moved")
}

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
		return n.StartFlowArg(new(Flow), src, dst, size, cap, nil, nil)
	}
	return n.StartFlowArg(new(Flow), src, dst, size, cap, callFunc, onDone)
}

func callFunc(x any) { x.(func())() }

// StartFlowArg is StartFlowCapped with the completion in Kernel.AfterArg's
// shape: fn(arg) runs where onDone would.  It fills and returns f, so a
// caller that already keeps a record per transfer can hold the flow in it,
// pass a shared fn and the record, and allocate nothing per flow.  f must
// not be one a pending delivery still reads: a flow cancelled after its
// last byte left keeps its deliverFlow event until the latency has passed,
// and that event reads f.cancelled.
func (n *Network) StartFlowArg(f *Flow, src, dst int, size Bytes, cap Rate, fn func(any), arg any) *Flow {
	n.flowSeq++
	*f = Flow{
		net:     n,
		seq:     n.flowSeq,
		cap:     cap,
		size:    size,
		latency: n.Latency(src, dst),
		fn:      fn,
		payload: arg,
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
		n.own[f] = n.k.AtArg(n.k.Now(), transferComplete, f)
		return
	}
	n.pathInto(f, src, dst)
	n.join(f)
}

// transferComplete fires when the last byte leaves the bottleneck; the
// delivery runs one path latency later.  A channel's delivery rides its
// Wire's bulk lane (Chan.transferred), which frees the flow for the
// channel's next message.
func transferComplete(x any) {
	f := x.(*Flow)
	n := f.net
	if f.nres > 0 {
		n.leave(f)
	} else {
		delete(n.own, f) // a loopback flow
	}
	at := n.k.Now() + f.latency
	if f.fn == nil {
		if o, ok := f.payload.(flowOwner); ok {
			o.transferred(at, f.size)
			return
		}
	}
	n.k.AtArg(at, deliverFlow, f)
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
	n.flows.Inc()
	n.bytesMoved.Add(f.size)
	if f.fn != nil {
		f.fn(f.payload)
	}
}

// Cancel aborts the flow; onDone will not run.  Safe to call at any point,
// including after completion (then it only suppresses a pending delivery).
func (f *Flow) Cancel() {
	f.cancelled = true
	n := f.net
	if f.nres > 0 {
		n.leave(f)
		return
	}
	n.stopOwn(f) // a loopback flow, or one that has finished
}
