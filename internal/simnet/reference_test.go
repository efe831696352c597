package simnet

import (
	"fmt"
	"math"
	"time"

	"ftckpt/internal/sim"
)

// The reference solver: the O(F) settle the per-resource clocks replaced.
// Its solver — attach, detach, reschedule, transferComplete and Cancel — is
// kept as it was apart from its type names, the instant it records when a
// flow's last byte leaves (end), and its completions, which are plain
// kernel events (a re-arm is a Cancel and a schedule); the platform around
// it is cut down to what a schedule uses.  Every change settles the remaining bytes of every
// flow sharing a resource with the flow that started or ended, at the old
// rate, and re-arms its completion at the new one.  It models the same
// platform as Network — NIC transmit and receive sides, each cluster's WAN
// uplink, WanFlowCap, per-flow caps and loopback — and solver_test.go
// drives both through one schedule.

type refResource struct {
	name  string
	bw    Rate
	flows []*refFlow
}

func (r *refResource) share() Rate {
	if len(r.flows) == 0 {
		return r.bw
	}
	return r.bw / Rate(len(r.flows))
}

type refFlow struct {
	ev        sim.EventID // the pending completion, or a stale id
	nres      uint8
	cancelled bool
	net       *refNetwork
	seq       uint64
	res       [maxPathRes]*refResource
	cap       Rate
	remaining float64
	size      Bytes
	rate      Rate
	last      sim.Time
	latency   sim.Time
	onDone    func()
	mark      uint64
	end       sim.Time // -1 until the last byte leaves
}

type refNode struct {
	cluster int
	tx, rx  *refResource
}

type refNetwork struct {
	k        *sim.Kernel
	topo     Topology
	nodes    []*refNode
	wanUp    []*refResource
	flowSeq  uint64
	affected []*refFlow
	epoch    uint64
}

func newRefNetwork(k *sim.Kernel, topo Topology) *refNetwork {
	n := &refNetwork{k: k, topo: topo}
	for ci, c := range topo.Clusters {
		for i := 0; i < c.Nodes; i++ {
			id := len(n.nodes)
			n.nodes = append(n.nodes, &refNode{
				cluster: ci,
				tx:      &refResource{name: fmt.Sprintf("n%d.tx", id), bw: c.NICBW},
				rx:      &refResource{name: fmt.Sprintf("n%d.rx", id), bw: c.NICBW},
			})
		}
	}
	if len(topo.Clusters) > 1 {
		n.wanUp = make([]*refResource, len(topo.Clusters))
		for ci := range topo.Clusters {
			n.wanUp[ci] = &refResource{name: fmt.Sprintf("wan%d", ci), bw: topo.WanBW}
		}
	}
	return n
}

func (n *refNetwork) latency(src, dst int) sim.Time {
	a, b := n.nodes[src], n.nodes[dst]
	if a.cluster == b.cluster {
		return n.topo.Clusters[a.cluster].Latency
	}
	return n.topo.WanLatency
}

func (n *refNetwork) StartFlowCapped(src, dst int, size Bytes, cap Rate, onDone func()) *refFlow {
	n.flowSeq++
	f := &refFlow{
		net:       n,
		seq:       n.flowSeq,
		cap:       cap,
		remaining: float64(size),
		size:      size,
		last:      n.k.Now(),
		latency:   n.latency(src, dst),
		onDone:    onDone,
		end:       -1,
	}
	a, b := n.nodes[src], n.nodes[dst]
	if a.cluster != b.cluster {
		if wc := n.topo.WanFlowCap; wc > 0 && (f.cap == 0 || wc < f.cap) {
			f.cap = wc
		}
	}
	if src == dst {
		f.ev = n.k.AtArg(n.k.Now(), refComplete, f)
		return f
	}
	f.res[0], f.res[1] = a.tx, b.rx
	f.nres = 2
	if a.cluster != b.cluster {
		f.res[2], f.res[3] = n.wanUp[a.cluster], n.wanUp[b.cluster]
		f.nres = 4
	}
	n.attach(f)
	n.reschedule()
	return f
}

func (n *refNetwork) beginAffected() {
	n.epoch++
	n.affected = n.affected[:0]
}

func (n *refNetwork) addAffected(g *refFlow) {
	if g.mark == n.epoch {
		return
	}
	g.mark = n.epoch
	n.affected = append(n.affected, g)
}

func (n *refNetwork) attach(f *refFlow) {
	n.beginAffected()
	n.addAffected(f)
	for _, r := range f.res[:f.nres] {
		for _, g := range r.flows {
			n.addAffected(g)
		}
		r.flows = append(r.flows, f)
	}
}

func (n *refNetwork) detach(f *refFlow) {
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

func (n *refNetwork) reschedule() {
	now := n.k.Now()
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
			g.remaining -= float64(g.rate * (now - g.last).Seconds())
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
		n.k.Cancel(g.ev)
		g.ev = n.k.AtArg(now+dt, refComplete, g)
	}
}

func refComplete(x any) { x.(*refFlow).transferComplete() }

func (f *refFlow) transferComplete() {
	n := f.net
	f.end = n.k.Now()
	f.remaining = 0
	if f.nres > 0 {
		n.detach(f)
		n.reschedule()
	}
	n.k.AtArg(n.k.Now()+f.latency, refDeliver, f)
}

func refDeliver(x any) {
	f := x.(*refFlow)
	if f.cancelled {
		return
	}
	if f.onDone != nil {
		f.onDone()
	}
}

func (f *refFlow) Cancel() {
	f.cancelled = true
	n := f.net
	if !n.k.Cancel(f.ev) {
		return
	}
	if f.nres > 0 {
		n.detach(f)
		n.reschedule()
	}
}
