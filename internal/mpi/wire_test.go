package mpi

import (
	"math"
	"reflect"
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
