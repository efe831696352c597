package simnet

import (
	"math"
	"time"

	"ftckpt/internal/sim"
)

// The flow solver: one virtual service clock per resource.
//
// In the min-share model a flow's rate is the least share among its
// resources, capped by its own ceiling, and a share depends only on how
// many flows cross the resource.  The flows whose rate is resource r's
// share ride r's clock: v, the bytes served to each of them since the
// clock last emptied, advances at that share.  A rider's tag is the v at
// which its last byte leaves (v at join plus the bytes left), so a change
// in r's population settles v once and re-arms only the earliest finisher —
// the riders are a heap by (tag, seq) — where a per-flow settle re-arms
// every member (VirtualClock, Zhang 1990).  A flow whose cap binds, and a
// loopback flow, ride a clock of their own: an event of their own at a
// fixed rate, held in Network.own.
//
// A flow's bytes are settled (tag − v) only when it migrates between
// clocks: when the least share on its path drops below the rate it rides
// (a join elsewhere on its path) or the share it rides rises above what it
// would get elsewhere (a departure from its clock).  A join therefore
// examines, on each resource it changed, only the members that ride other
// clocks; a departure examines a clock's riders only when the new share
// exceeds lb, a lower bound the clock keeps on what its riders would get
// elsewhere.  Both skips are exact: a rider's rate is its clock's
// share, and a flow rides a clock only while that share is the least on
// its path and not above its cap (ties stay where they are).

// ownClock is Flow.ride for a flow on a clock of its own.
const ownClock = -1

// resource is a capacity shared equally by the flows crossing it, and the
// virtual clock of those whose bottleneck it is.
type resource struct {
	name  string
	bw    Rate
	share Rate // bw / len(flows), cached; bw while there are none
	// flows are the members: flows[:nr] ride this clock, a heap by
	// (tag, seq), and flows[nr:] ride other clocks.
	flows []*Flow
	nr    int
	// v is the bytes served to each rider since the clock last emptied,
	// as of last.
	v    float64
	last sim.Time
	// lb is at most the rate any rider would get off this clock (alt).
	lb Rate
	// armed is the rider whose completion event ev is pending; ev is
	// stale while armed is nil.
	armed *Flow
	ev    sim.EventID
	// mark is the epoch of the flow change that last settled v; was is
	// share as of that settle.
	mark uint64
	was  Rate
}

func newResource(name string, bw Rate) *resource {
	return &resource{name: name, bw: bw, share: bw, lb: math.Inf(1)}
}

// setShare sets share for a population of m members.
func (r *resource) setShare(m int) {
	r.share = r.bw
	if m > 0 {
		r.share = r.bw / Rate(m)
	}
}

// slotOf returns the index of r in g's path.
func (g *Flow) slotOf(r *resource) int {
	for i, s := range g.res[:g.nres] {
		if s == r {
			return i
		}
	}
	panic("simnet: flow not on resource " + r.name)
}

// alt returns the rate g would get off the clock it rides: its cap, or the
// least share among its other resources.
func (g *Flow) alt() Rate {
	a := math.Inf(1)
	if g.cap > 0 {
		a = g.cap
	}
	for i, r := range g.res[:g.nres] {
		if int8(i) != g.ride && r.share < a {
			a = r.share
		}
	}
	return a
}

// maxUntil caps until: now + maxUntil stays inside sim.Time for any now
// below it (≈ 146 years), so a flow too long to finish is due in the far
// future instead of at a wrapped-negative instant.
const maxUntil = sim.Time(math.MaxInt64 / 2)

// until returns how long left bytes take at rate, at most maxUntil.
func until(left float64, rate Rate) sim.Time {
	if left <= 0 {
		return 0
	}
	d := left / rate * float64(time.Second)
	if d >= float64(maxUntil) {
		return maxUntil
	}
	return sim.Time(d)
}

// begin starts a flow change.
func (n *Network) begin() {
	n.epoch++
	n.touched = n.touched[:0]
}

// touch settles r's clock to now, once per flow change and before its
// share changes, and lists r for resync.
func (n *Network) touch(r *resource, now sim.Time) {
	if r.mark == n.epoch {
		return
	}
	r.mark, r.was = n.epoch, r.share
	if r.nr > 0 {
		// float64(·) rounds the product: no fused multiply-add, so
		// completion times are the same bits on every GOARCH.
		r.v += float64(r.share * (now - r.last).Seconds())
	}
	r.last = now
	n.touched = append(n.touched, r)
}

// join adds a flow whose path is set to its resources' members, on the
// clock of its bottleneck, and moves every member that now rides above the
// share of one of its resources.
func (n *Network) join(f *Flow) {
	now := n.k.Now()
	n.begin()
	for _, r := range f.res[:f.nres] {
		n.touch(r, now)
		r.setShare(len(r.flows) + 1)
	}
	best := f.bottleneck()
	for i, r := range f.res[:f.nres] {
		if i != best {
			r.addOther(f, i)
		}
	}
	n.board(f, best, float64(f.size), now)
	// A migration changes no share, so every member can be judged before
	// any moves.  A member crossing two of f's resources may be listed
	// twice; outranked finds it in place the second time.
	movers := n.movers[:0]
	for _, r := range f.res[:f.nres] {
		for _, g := range r.flows[r.nr:] {
			if n.outranked(g) {
				movers = append(movers, g)
			}
		}
	}
	for _, g := range movers {
		if n.outranked(g) {
			n.migrate(g, now)
		}
	}
	clear(movers)
	n.movers = movers[:0]
	n.resync(now)
}

// leave takes a transmitting flow off its resources, and off the clock it
// rides, and moves every rider of a resource whose share rose above what
// the rider would get elsewhere.
func (n *Network) leave(f *Flow) {
	now := n.k.Now()
	n.begin()
	for _, r := range f.res[:f.nres] {
		n.touch(r, now)
	}
	if f.ride == ownClock {
		n.stopOwn(f)
	}
	for i, r := range f.res[:f.nres] {
		if i == int(f.ride) {
			r.removeRider(f)
		} else {
			r.removeOther(f.pos[i])
		}
		r.setShare(len(r.flows))
		f.res[i] = nil
	}
	// touch listed the flow's resources first.
	for _, r := range n.touched[:f.nres] {
		if r.share > r.lb {
			n.scan(r, now)
		}
	}
	f.nres = 0
	n.resync(now)
}

// outranked reports whether a share on g's path is below the rate g
// rides, which a join can make so.  If not, the share that fell may be g's
// new alternative, and it lowers the bound of g's clock.
func (n *Network) outranked(g *Flow) bool {
	if g.ride == ownClock {
		for _, r := range g.res[:g.nres] {
			if r.share < g.cap {
				return true
			}
		}
		return false
	}
	c := g.res[g.ride]
	a := g.alt()
	if a < c.share {
		return true
	}
	if a < c.lb {
		c.lb = a
	}
	return false
}

// scan moves off r's clock every rider that would get more elsewhere than
// r's share, which has risen, and makes lb exact for the riders that stay.
func (n *Network) scan(r *resource, now sim.Time) {
	lb := math.Inf(1)
	movers := n.movers[:0]
	for _, g := range r.flows[:r.nr] {
		if a := g.alt(); a < r.share {
			movers = append(movers, g)
		} else if a < lb {
			lb = a
		}
	}
	r.lb = lb
	for _, g := range movers {
		n.migrate(g, now)
	}
	clear(movers)
	n.movers = movers[:0]
}

// migrate settles the bytes g has left on the clock it rides and moves it
// to the clock of its bottleneck.
func (n *Network) migrate(g *Flow, now sim.Time) {
	var left float64
	if g.ride == ownClock {
		n.stopOwn(g)
		left = g.tag - float64(g.cap*(now-g.since).Seconds())
	} else {
		r := g.res[g.ride]
		n.touch(r, now)
		left = g.tag - r.v
		r.removeRider(g)
		r.addOther(g, int(g.ride))
	}
	best := g.bottleneck()
	if best != ownClock {
		g.res[best].removeOther(g.pos[best])
	}
	n.board(g, best, max(left, 0), now)
}

// bottleneck returns the index in g's path of the first of its least
// shares, or ownClock if its cap is below that share.
func (g *Flow) bottleneck() int {
	best, rate := 0, g.res[0].share
	for i, r := range g.res[1:g.nres] {
		if r.share < rate {
			best, rate = i+1, r.share
		}
	}
	if g.cap > 0 && g.cap < rate {
		return ownClock
	}
	return best
}

// board puts g, with left bytes to go, on the clock of res[i], which must
// not yet count g among its members, or on a clock of its own.
func (n *Network) board(g *Flow, i int, left float64, now sim.Time) {
	g.ride = int8(i)
	if i == ownClock {
		g.tag, g.since = left, now
		n.own[g] = n.k.AtArg(now+until(left, g.cap), transferComplete, g)
		return
	}
	r := g.res[i]
	n.touch(r, now)
	g.tag = r.v + left
	r.pushRider(g)
	if a := g.alt(); a < r.lb {
		r.lb = a
	}
}

// resync re-arms, for every clock the change touched, its earliest
// finisher if that rider or the clock's share changed.
func (n *Network) resync(now sim.Time) {
	for _, r := range n.touched {
		if r.nr == 0 {
			r.v, r.lb = 0, math.Inf(1)
			continue
		}
		top := r.flows[0]
		if top == r.armed && r.share == r.was {
			continue
		}
		n.k.Cancel(r.ev)
		r.armed = top
		r.ev = n.k.AtArg(now+until(top.tag-r.v, r.share), transferComplete, top)
	}
}

// stopOwn forgets the completion event of g, which rides a clock of its
// own, cancelling it unless it has fired.
func (n *Network) stopOwn(g *Flow) {
	if id, ok := n.own[g]; ok {
		delete(n.own, g)
		n.k.Cancel(id)
	}
}

// addOther appends g, whose path slot i is r, to r's members as one that
// rides another clock.
func (r *resource) addOther(g *Flow, i int) {
	g.pos[i] = int32(len(r.flows))
	r.flows = append(r.flows, g)
}

// removeOther takes the member at index j ≥ nr, which rides another clock,
// out of r's members by moving the last member into its place.
func (r *resource) removeOther(j int32) {
	last := len(r.flows) - 1
	if int(j) < last {
		g := r.flows[last]
		r.flows[j] = g
		g.pos[g.slotOf(r)] = j
	}
	r.truncate()
}

// truncate drops r's last member, clearing the vacated slot so that the
// backing array keeps no finished flow (nor its payload) alive.
func (r *resource) truncate() {
	last := len(r.flows) - 1
	r.flows[last] = nil
	r.flows = r.flows[:last]
}

func (a *Flow) before(b *Flow) bool {
	if a.tag != b.tag {
		return a.tag < b.tag
	}
	return a.seq < b.seq
}

// pushRider adds g, whose ride is r and which is not among r's members, to
// r's heap; the first member riding another clock moves to the end.
func (r *resource) pushRider(g *Flow) {
	if r.nr < len(r.flows) {
		o := r.flows[r.nr]
		r.addOther(o, o.slotOf(r))
	} else {
		r.flows = append(r.flows, nil)
	}
	r.nr++
	r.fix(r.nr-1, g)
}

// removeRider takes g out of r's members, cancelling its completion if it
// was the one armed: the last rider fills its place in the heap and the
// last member the last rider's.
func (r *resource) removeRider(g *Flow) {
	if r.armed == g {
		g.net.k.Cancel(r.ev)
		r.armed = nil
	}
	i := int(g.pos[g.ride])
	r.nr--
	e := r.flows[r.nr]
	if last := len(r.flows) - 1; r.nr < last {
		o := r.flows[last]
		r.flows[r.nr] = o
		o.pos[o.slotOf(r)] = int32(r.nr)
	}
	r.truncate()
	if i < r.nr {
		r.fix(i, e)
	}
}

// fix puts g at position i of r's heap, whose previous entry it replaces,
// and moves it up or down to restore the order, recording the position of
// every rider it moves.
func (r *resource) fix(i int, g *Flow) {
	h := r.flows[:r.nr]
	for i > 0 {
		parent := (i - 1) / 2
		if !g.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].pos[h[i].ride] = int32(i)
		i = parent
	}
	for {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if m+1 < len(h) && h[m+1].before(h[m]) {
			m++
		}
		if !h[m].before(g) {
			break
		}
		h[i] = h[m]
		h[i].pos[h[i].ride] = int32(i)
		i = m
	}
	h[i] = g
	g.pos[g.ride] = int32(i)
}
