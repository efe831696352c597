package mpi

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// TestRecordSizes pins the record every message is between Fabric.Send and
// its delivery: a lane entry and an inbox slot hold it by value, so it is
// what a marker flood's high water is made of.  A body slot is one 128th
// of a 4 KB chunk.  Packet, which unexpected queues, Mlog's records and
// images hold, is pinned too: the owned bit rides in padding of both.
func TestRecordSizes(t *testing.T) {
	wire, packet := uintptr(40), uintptr(96)
	if unsafe.Sizeof(uintptr(0)) == 4 { // 32-bit words and pointers
		wire, packet = 36, 64
	}
	if n := unsafe.Sizeof(WireMsg{}); n != wire {
		t.Errorf("WireMsg is %d bytes, want %d", n, wire)
	}
	if n := unsafe.Sizeof(Packet{}); n != packet {
		t.Errorf("Packet is %d bytes, want %d", n, packet)
	}
	if n := unsafe.Sizeof(wireBody{}); n > 32 {
		t.Errorf("wireBody is %d bytes, want <= 32", n)
	}
}

// TestWireMsgRoundTrip: every packet shape Fabric.Send accepts reaches the
// handler field for field, with the sender's Src, Dst and Seq, and leaves
// the sender's packet untouched.  A packet with neither Data nor VSize
// travels without a body slot.
func TestWireMsgRoundTrip(t *testing.T) {
	shapes := []Packet{
		{Kind: KindPayload, Tag: 3, Data: []byte("halo"), PSeq: 7},
		{Kind: KindPayload, Tag: 0, VSize: 4 << 20},
		{Kind: KindPayload, Tag: 1, Data: []byte{}},
		{Kind: KindPayload, Tag: -17, Data: []byte("ab"), VSize: 1 << 10},
		{Kind: KindControl, Tag: 100, Data: []byte{1, 2, 3}},
		{Kind: KindControl, Tag: 100, PSeq: 1 << 40},
		{Kind: KindControl, Tag: -5, Wave: math.MinInt32},
		{Kind: KindMarker, Wave: math.MaxInt32, SpanID: math.MaxUint64},
	}
	k := sim.New(1)
	fab := NewFabric(simnet.New(k, testTopo(2)))
	fab.Place(SchedulerID, 0)
	fab.Place(1, 1)
	var got []Packet
	var bodies []bool
	fab.Bind(1, func(p *Packet) { got = append(got, *p) })
	bound := fab.handler(1)
	fab.BindWire(1, func(m WireMsg) {
		bodies = append(bodies, m.body != nil)
		bound(m)
	})
	for _, p := range shapes {
		sent := p
		fab.Send(SchedulerID, 1, &sent)
		if !reflect.DeepEqual(sent, p) {
			t.Errorf("Send changed the sender's packet: %+v, was %+v", sent, p)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(shapes) {
		t.Fatalf("%d of %d packets delivered", len(got), len(shapes))
	}
	for i, p := range shapes {
		want := p
		want.Src, want.Dst, want.Seq = SchedulerID, 1, uint64(i+1)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("sent %+v\n  got  %+v", want, got[i])
		}
		if hasBody := p.Data != nil || p.VSize != 0; bodies[i] != hasBody {
			t.Errorf("%+v travelled with a body slot: %v, want %v", p, bodies[i], hasBody)
		}
	}
}

// TestConsumedBodyHoldsNoData: once the engine has rebuilt a message into
// its lent packet, the body slot no longer references the Data, so the
// chunk, which lives while any of its slots is on the wire, keeps no
// consumed buffer alive; nor do the engine's and the fabric's lent
// packets.
func TestConsumedBodyHoldsNoData(t *testing.T) {
	k := sim.New(1)
	w := NewWorld(k, testTopo(2), Profile{Name: "test"}, 2, 1)
	var bodies []*wireBody
	w.Fab.Place(SchedulerID, 0)
	var ctl []byte
	w.Fab.Bind(SchedulerID, func(p *Packet) { ctl = p.Data })
	err := w.Run(func(e *Engine) {
		if e.Rank() == 0 {
			e.Send(1, 1, []byte("first"), 0)
			e.Send(1, 2, nil, 64)
			w.Fab.Send(0, SchedulerID, &Packet{Kind: KindControl, Data: []byte("ctl")})
			return
		}
		// Bound before anything rank 0 sends can arrive.
		w.Fab.BindWire(1, func(m WireMsg) {
			bodies = append(bodies, m.body)
			e.HandleWire(m)
		})
		if p := e.Recv(0, 2); p.VSize != 64 {
			t.Errorf("second payload %+v", p)
		}
		if p := e.Recv(0, 1); string(p.Data) != "first" {
			t.Errorf("first payload %+v", p)
		}
		if e.in.Data != nil {
			t.Error("the engine's lent packet still holds a payload's Data")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 2 || string(ctl) != "ctl" {
		t.Fatalf("%d payload bodies, control data %q", len(bodies), ctl)
	}
	for i, b := range bodies {
		if b.data != nil || b.vsize != 0 {
			t.Errorf("body %d still holds %+v after delivery", i, *b)
		}
	}
	if w.Fab.lent.Data != nil {
		t.Error("the fabric's lent packet still holds a control packet's Data")
	}
}

// TestHeaderOutOfRangePanics: a header the 40-byte record cannot hold is a
// programming error, and the panic says which packet it was.  The int
// fields are given as int64, and a case whose value no int holds (a 32-bit
// platform) has nothing to check.
func TestHeaderOutOfRangePanics(t *testing.T) {
	cases := []struct {
		name                string
		p                   Packet
		wave, tag, src, dst int64
		seq                 uint64
	}{
		{"wave", Packet{Kind: KindMarker}, math.MaxInt32 + 1, 0, 0, 1, 1},
		{"tag", Packet{Kind: KindPayload}, 0, math.MinInt32 - 1, 0, 1, 1},
		{"dst", Packet{Kind: KindMarker}, 0, 0, 0, math.MaxInt32 + 1, 1},
		{"src", Packet{Kind: KindMarker}, 0, 0, math.MinInt32 - 1, 1, 1},
		{"seq", Packet{Kind: KindPayload, VSize: 8}, 0, 0, 0, 1, math.MaxUint32 + 1},
		{"PSeq and SpanID", Packet{Kind: KindMarker, PSeq: 1, SpanID: 2}, 0, 0, 0, 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, v := range []int64{c.wave, c.tag, c.src, c.dst} {
				if int64(int(v)) != v {
					t.Skipf("an int cannot hold %d on this platform", v)
				}
			}
			c.p.Wave, c.p.Tag = int(c.wave), int(c.tag)
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.HasPrefix(msg, "mpi: ") {
					t.Errorf("recovered %v, want an mpi panic naming the packet", r)
				}
			}()
			header(&c.p, int(c.src), int(c.dst), c.seq)
		})
	}
}

// TestSendRejectsUnfitHeader: Fabric.Send panics on such a header before
// anything reaches the wire.
func TestSendRejectsUnfitHeader(t *testing.T) {
	wave := int64(math.MaxInt32) + 1
	if int64(int(wave)) != wave {
		t.Skip("an int cannot hold a wave beyond int32 on this platform")
	}
	k := sim.New(1)
	fab := NewFabric(simnet.New(k, testTopo(2)))
	fab.Place(0, 0)
	fab.Place(1, 1)
	delivered := 0
	fab.Bind(1, func(*Packet) { delivered++ })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a wave beyond int32 was sent")
			}
		}()
		fab.Send(0, 1, &Packet{Kind: KindControl, Wave: int(wave), Data: []byte("x")})
	}()
	k.After(time.Millisecond, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Errorf("%d packets delivered after a rejected send", delivered)
	}
}

// TestBodySlotsRecycle: a body slot goes back to the Fabric when its
// message is consumed, so once a run has carved the slots it has in flight
// at once, data messages allocate nothing.  Without the free list, 10 000
// messages would carve 78 chunks: one malloc per bodyChunk messages, which
// AllocsPerRun's whole-number mean would round away, hence the totals.
func TestBodySlotsRecycle(t *testing.T) {
	const links, rounds, warm, windows = 4, 2500, 100, 3
	k := sim.New(1)
	fab := NewFabric(simnet.New(k, testTopo(links)))
	delivered := 0
	for id := 0; id < links; id++ {
		fab.Place(id, id)
		fab.Bind(id, func(p *Packet) {
			if len(p.Data) != 8 && p.VSize != 64 {
				t.Errorf("delivered %+v", p)
			}
			delivered++
		})
	}
	data := []byte("8 bytes!")
	round := func(i int) {
		for src := 0; src < links; src++ {
			p := Packet{Kind: KindPayload, Tag: i}
			if (i+src)%2 == 0 {
				p.Data = data
			} else {
				p.VSize = 64
			}
			fab.Send(src, (src+1)%links, &p)
		}
	}
	var mallocs []uint64
	k.Go("sender", func(lp *sim.Proc) {
		for i := 0; i < warm; i++ {
			round(i)
			lp.Advance(time.Millisecond) // transmitted and delivered
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		// About once in 150 runs a window counts 1 malloc the messages do
		// not make, so a window is measured up to three times and the
		// least count is the messages'.
		for len(mallocs) < windows && !slices.Contains(mallocs, 0) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				round(i)
				lp.Advance(time.Millisecond)
			}
			runtime.ReadMemStats(&after)
			mallocs = append(mallocs, after.Mallocs-before.Mallocs)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := links * (warm + rounds*len(mallocs)); delivered != want {
		t.Fatalf("delivered %d of %d messages", delivered, want)
	}
	if !slices.Contains(mallocs, 0) {
		t.Errorf("%v mallocs in %d windows of %d data messages after a warm-up, want 0 in one", mallocs, len(mallocs), links*rounds)
	}
	if len(fab.free) > links {
		t.Errorf("%d slots on the free list, more than the %d messages ever in flight at once", len(fab.free), links)
	}
}

// TestBodySlotChurn drives seeded schedules of Data and VSize sends over
// every link of six engines with a daemon-service delay, half of them
// synchronous (an inbox that fills between MPI calls), while endpoints are
// killed (Engine.Close, then Unbind up to 200 µs later) and bound again,
// and FT engines are reset (FTReset, which drops the inbox and, by epoch,
// the daemon lane).  Every packet that reaches a filter equals what was
// sent, field for field.  After every step (a send, an arrival, a
// consumption, a kill, a bind, a reset) each slot on the free list is
// empty and listed once, and none is the body of a message still in
// flight, on the wire or waiting in an engine.  It fails on each of these
// mutations of the code: the slot pushed at Send, pushed twice on each
// drop path (unbound endpoint, closed engine at HandleWire and at admit,
// stale epoch, dropped inbox), pushed without being emptied, and pushed
// by unwrap before the body is read.  A kill's Unbind closes the links
// that still carry messages, and their slots come back too: from the
// check lostSettle after the kill on, each slot a message took is on the
// free list or held by a message still live, and once the run is over
// every one is on the free list.  That fails when a closed channel drops
// its queue, the message it was transmitting or a delivery already on a
// lane without handing the slot back.
func TestBodySlotChurn(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { bodySlotChurn(t, seed) })
	}
}

// churnMsg is a message of bodySlotChurn's schedule and what became of it.
type churnMsg struct {
	p    Packet    // as the filter must see it
	slot *wireBody // the body slot Send took
	// The message is on the wire until it arrives at its engine, then
	// waits there until a filter consumes it; doomed when a kill or a
	// reset drops it for certain, maybe when it was sent to an unbound
	// endpoint, which drops it unless the endpoint is bound again first.
	arrived, consumed, doomed, maybe bool
	// lost is when a kill's Unbind closed the link the message was still
	// on (lost > 0).
	lost time.Duration
}

// lostSettle is how long after a kill every delivery the closed links had
// on a lane has arrived, and been dropped, in bodySlotChurn's schedules.
const lostSettle = 20 * time.Millisecond

func bodySlotChurn(t *testing.T, seed uint64) {
	const n, horizon = 6, 40 * time.Millisecond
	rng := rand.New(rand.NewPCG(seed, 54))
	k := sim.New(1)
	fab := NewFabric(simnet.New(k, testTopo(n/2)))
	var msgs []*churnMsg
	holder := map[*wireBody]*churnMsg{} // the last message that took each slot
	check := func(step string) {
		t.Helper()
		free := map[*wireBody]bool{}
		for _, b := range fab.free {
			if free[b] {
				t.Fatalf("%s: slot %p is on the free list twice", step, b)
			}
			if free[b] = true; b.data != nil || b.vsize != 0 {
				t.Fatalf("%s: free slot %p holds %+v", step, b, *b)
			}
		}
		for id, m := range msgs {
			if m.consumed || m.doomed || m.maybe {
				continue
			}
			if free[m.slot] {
				t.Fatalf("%s: message %d's slot is on the free list, the message still in flight (arrived %v)", step, id, m.arrived)
			}
			if b := *m.slot; !reflect.DeepEqual(b.data, m.p.Data) || b.vsize != m.p.VSize {
				t.Fatalf("%s: message %d's slot holds %+v, sent %q and %d", step, id, b, m.p.Data, m.p.VSize)
			}
		}
		for slot, m := range holder {
			if !free[slot] && m.lost > 0 && k.Now() >= m.lost+lostSettle {
				t.Fatalf("%s: the slot of message %d, lost when a kill closed its link at %v, is not on the free list", step, m.p.PSeq, m.lost)
			}
		}
	}
	profile := func(r int) Profile {
		return Profile{Name: "churn", DaemonLatency: 30 * time.Microsecond, DaemonCopyBW: 1e9, Async: r%2 == 0}
	}
	engines := make([]*Engine, n)
	lps := make([]*sim.Proc, n)
	bound := make([]bool, n)
	seq := make([][]uint64, n) // the packets each pair's channel has carried since it opened (Packet.Seq)
	for r := range seq {
		seq[r] = make([]uint64, n)
	}
	bind := func(r int) {
		e := NewEngine(r, n, lps[r], profile(r), fab)
		e.EnableFT()
		e.SetFilter(churnFilter(func(p *Packet) {
			id := int(p.PSeq)
			m := msgs[id]
			switch {
			case m.consumed:
				t.Fatalf("message %d consumed twice", id)
			case m.doomed:
				t.Fatalf("message %d reached a filter after a kill or a reset dropped it", id)
			case !reflect.DeepEqual(*p, m.p):
				t.Fatalf("message %d: filter got %+v\n  sent %+v", id, *p, m.p)
			}
			m.consumed = true
			check(fmt.Sprintf("consume %d", id))
		}))
		fab.BindWire(r, func(w WireMsg) {
			m := msgs[w.aux]
			if m.doomed {
				t.Fatalf("message %d arrived after a kill closed its link", w.aux)
			}
			if w.body != m.slot {
				t.Fatalf("message %d arrived with slot %p, sent with %p", w.aux, w.body, m.slot)
			}
			// A closed engine whose endpoint is still bound drops it.
			m.arrived, m.maybe, m.doomed = true, false, e.closed
			check(fmt.Sprintf("arrive %d", w.aux))
			e.HandleWire(w)
		})
		engines[r], bound[r] = e, true
	}
	// drop dooms what a kill or a reset of r drops: the messages waiting
	// in its engine and, on a kill, every message on a link of r's.
	drop := func(r int, kill bool) {
		for _, m := range msgs {
			if m.consumed {
				continue
			}
			if m.arrived && m.p.Dst == r {
				m.doomed = true
			}
			if kill && !m.arrived && (m.p.Dst == r || m.p.Src == r) {
				m.doomed = true
				if m.lost == 0 {
					m.lost = k.Now()
				}
			}
		}
	}
	for r := 0; r < n; r++ {
		fab.Place(r, r/2)
		lps[r] = k.Go(fmt.Sprintf("rank%d", r), func(lp *sim.Proc) {
			for lp.Now() < time.Second { // long past the last arrival
				lp.Advance(time.Duration(50+rng.IntN(400)) * time.Microsecond)
				engines[r].enterOp() // a synchronous engine drains its inbox
				engines[r].exitOp()
			}
		})
	}
	for r := 0; r < n; r++ {
		bind(r)
	}
	data := func(id int) []byte { return []byte(fmt.Sprintf("message %d", id)) }
	for i := 0; i < 400; i++ {
		at := time.Duration(rng.Int64N(int64(horizon)))
		switch x := rng.IntN(100); {
		case x < 88: // a send between two different endpoints
			src, dst := rng.IntN(n), rng.IntN(n-1)
			if dst >= src {
				dst++
			}
			p := Packet{Kind: KindPayload, Tag: rng.IntN(8), Wave: rng.IntN(3)}
			if x%8 == 5 {
				p.Kind, p.Tag = KindControl, -p.Tag
			}
			body := x % 4
			switch body {
			case 0: // bulk: up to 2.6 ms on the wire
				p.VSize = int64(1 + rng.IntN(256<<10))
			case 2:
				p.VSize = int64(1 + rng.IntN(64))
			}
			k.At(at, func() {
				if !bound[src] {
					return // a dead process sends nothing
				}
				id := len(msgs)
				p := p
				switch body {
				case 1, 2:
					p.Data = data(id)
				case 3:
					p.Data = []byte{} // present and empty: still a body
				}
				p.Src, p.Dst, p.PSeq = src, dst, uint64(id)
				seq[src][dst]++
				p.Seq = seq[src][dst]
				m := &churnMsg{p: p, slot: nextBody(fab), maybe: !bound[dst]}
				msgs = append(msgs, m)
				holder[m.slot] = m
				sent := p
				sent.Seq = 0
				fab.Send(src, dst, &sent)
				check(fmt.Sprintf("send %d", id))
			})
		case x < 94: // a kill, the endpoint unbound a moment later, and bound again
			r := rng.IntN(n)
			lag := time.Duration(rng.Int64N(int64(200 * time.Microsecond)))
			back := time.Duration(rng.Int64N(int64(5 * time.Millisecond)))
			k.At(at, func() {
				if !bound[r] {
					return
				}
				drop(r, false)
				engines[r].Close()
				bound[r] = false
				check(fmt.Sprintf("close %d", r))
				k.After(lag, func() {
					drop(r, true)
					fab.Unbind(r)
					for o := 0; o < n; o++ {
						seq[r][o], seq[o][r] = 0, 0
					}
					check(fmt.Sprintf("unbind %d", r))
					k.After(back, func() {
						bind(r)
						check(fmt.Sprintf("bind %d", r))
					})
				})
			})
		default: // a repair
			r := rng.IntN(n)
			k.At(at, func() {
				if bound[r] {
					drop(r, false)
					engines[r].FTReset()
					check(fmt.Sprintf("reset %d", r))
				}
			})
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	check("end")
	free := map[*wireBody]bool{}
	for _, b := range fab.free {
		free[b] = true
	}
	for slot, m := range holder {
		if !free[slot] {
			t.Errorf("the slot of message %d (%+v) is not on the free list with nothing in flight", m.p.PSeq, m)
		}
	}
	var consumed, doomed, lost int
	for id, m := range msgs {
		switch {
		case m.consumed:
			consumed++
		case m.doomed:
			doomed++
		case m.maybe:
			lost++
		default:
			t.Errorf("message %d neither consumed nor dropped: %+v", id, m)
		}
	}
	if consumed == 0 || doomed == 0 || lost == 0 {
		t.Errorf("%d messages consumed, %d dropped by a kill or reset, %d sent to an unbound endpoint: the schedule misses a path",
			consumed, doomed, lost)
	}
}

// nextBody returns the slot fab.Send takes next, carving the chunk first
// as Send would.
func nextBody(f *Fabric) *wireBody {
	if n := len(f.free); n > 0 {
		return f.free[n-1]
	}
	if len(f.bodies) == 0 {
		f.bodies = make([]wireBody, bodyChunk)
	}
	return &f.bodies[0]
}

// churnFilter hands every packet to itself and consumes it.
type churnFilter func(*Packet)

func (f churnFilter) OutPayload(*Packet) bool { return true }
func (f churnFilter) InPacket(p *Packet) bool {
	f(p)
	return false
}
