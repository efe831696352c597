package mpi

import (
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// TestRecordSizes pins the record every message is between Fabric.Send and
// its delivery: a lane entry and an inbox slot hold it by value, so it is
// what a marker flood's high water is made of.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(WireMsg{}); n > 40 {
		t.Errorf("WireMsg is %d bytes, want <= 40", n)
	}
}

// TestWireMsgInlineRule: a marker or control packet whose fields fit the
// record travels inline and comes back field for field; a payload, data on
// a control packet, a field out of range, or both PSeq and SpanID set
// travel boxed, as a copy that leaves the sender's packet untouched.
func TestWireMsgInlineRule(t *testing.T) {
	inline := []Packet{
		{Kind: KindMarker, Wave: 4, SpanID: 9},
		{Kind: KindControl, Tag: 100, PSeq: 1 << 40},
		{Kind: KindControl, Tag: -5, Wave: math.MinInt32},
	}
	for _, p := range inline {
		m := newWireMsg(&p, SchedulerID, 7, 3)
		if m.box != nil {
			t.Errorf("%+v was boxed", p)
			continue
		}
		want := p
		want.Src, want.Dst, want.Seq = SchedulerID, 7, 3
		var lent Packet
		if got := m.packet(&lent); got != &lent || !reflect.DeepEqual(*got, want) {
			t.Errorf("inline %+v came back as %+v", want, *got)
		}
	}
	boxed := []struct {
		p        Packet
		src, dst int
		seq      uint64
	}{
		{Packet{Kind: KindPayload}, 0, 1, 1},
		{Packet{Kind: KindControl, Data: []byte{}}, 0, 1, 1},
		{Packet{Kind: KindControl, VSize: 8}, 0, 1, 1},
		{Packet{Kind: KindMarker, PSeq: 1, SpanID: 2}, 0, 1, 1},
		{Packet{Kind: KindMarker, Wave: math.MaxInt32 + 1}, 0, 1, 1},
		{Packet{Kind: KindMarker}, 0, math.MaxInt32 + 1, 1},
		{Packet{Kind: KindMarker}, 0, 1, math.MaxUint32 + 1},
	}
	for _, c := range boxed {
		sent := c.p
		m := newWireMsg(&sent, c.src, c.dst, c.seq)
		if m.box == nil || m.box == &sent {
			t.Errorf("%+v travelled inline or uncopied", c.p)
			continue
		}
		if m.box.Src != c.src || m.box.Dst != c.dst || m.box.Seq != c.seq || sent.Seq != 0 {
			t.Errorf("box %+v from %+v", *m.box, sent)
		}
		if m.dest() != c.dst || m.packet(nil) != m.box {
			t.Errorf("box of %+v not returned as itself", c.p)
		}
	}
}
