package mpi

import (
	"fmt"
	"math"
)

// WireMsg is a packet between Fabric.Send and its delivery: the record the
// network's lanes, an engine's inbox and its daemon-service lane hold by
// value.  Every message's header rides in the record itself: its ids, tag
// and wave as int32, its Seq as uint32, and one of PSeq and SpanID.  A
// message with Data or a VSize also points at its body, a slot of the
// Fabric's; a marker or control packet without data has none and costs no
// heap object at all.
//
// A body slot is lent to the message, not spent on it.  Send takes one
// from the Fabric's free list, or carves it from a chunk of bodyChunk when
// the list is empty.  The message is rebuilt into a Packet only for the
// call that consumes it (Filter.InPacket, a Bind handler), through
// Fabric.unwrap, which empties the slot and hands it back; that Packet is
// lent, and a receiver that keeps it must copy it.  A message dropped on
// its way (at an unbound endpoint or a closed engine, out of a stale
// epoch, in the inbox Close or FTReset discards, on a channel Unbind
// closed, through the Wire's drop callback) hands its slot back emptied
// too (Fabric.drop).  A message is rebuilt or dropped once, and no copy
// of it is read after that, so no live message shares a slot the list
// holds.
type WireMsg struct {
	body                *wireBody // Data and VSize, nil when the message has neither
	aux                 uint64    // PSeq, or SpanID when spanAux
	src, dst, tag, wave int32
	seq                 uint32
	kind                Kind
	spanAux             bool
	owned               bool // Packet.owned, in the record's padding
}

// wireBody is the part of a packet the record has no room for.
type wireBody struct {
	data  []byte
	vsize int64
}

// bodyChunk is how many body slots the Fabric carves from one allocation:
// 128 slots of 32 bytes are 4 KB, a malloc size class.  Slots go back to
// the Fabric's free list, so the chunks a run carves cover the most
// bodies it has in flight at once.
const bodyChunk = 128

// fits32 reports whether v survives a round trip through int32.
func fits32(v int) bool { return v == int(int32(v)) }

// header puts p's header on the wire from src to dst as the seq-th packet
// of its link, without its body.  It reads p and never keeps it.  A header
// the record cannot hold is a programming error: ids, tags and waves are
// small, a link does not carry 2^32 packets, and only a marker has a span.
func header(p *Packet, src, dst int, seq uint64) WireMsg {
	// The panics name the fields, not p: passing p on would make every
	// caller's packet escape to the heap.
	if seq > math.MaxUint32 || !fits32(src) || !fits32(dst) || !fits32(p.Tag) || !fits32(p.Wave) {
		panic(fmt.Sprintf("mpi: %v %d->%d tag=%d wave=%d as packet %d of its link: a header field exceeds the wire record",
			p.Kind, src, dst, p.Tag, p.Wave, seq))
	}
	if p.PSeq != 0 && p.SpanID != 0 {
		panic(fmt.Sprintf("mpi: %v %d->%d tag=%d carries both PSeq %d and SpanID %d", p.Kind, src, dst, p.Tag, p.PSeq, p.SpanID))
	}
	m := WireMsg{src: int32(src), dst: int32(dst), tag: int32(p.Tag), wave: int32(p.Wave),
		seq: uint32(seq), kind: p.Kind, aux: p.PSeq, owned: p.owned}
	if p.SpanID != 0 {
		m.aux, m.spanAux = p.SpanID, true
	}
	return m
}

// dest returns the destination endpoint.
func (m *WireMsg) dest() int { return int(m.dst) }

// payloadSize returns the payload bytes the message represents: none
// without a body.
func (m *WireMsg) payloadSize() int64 {
	if b := m.body; b != nil {
		return max(int64(len(b.data)), b.vsize)
	}
	return 0
}

// packet rebuilds the message into lent, which the caller owns and lends,
// and returns it.  It leaves the body slot as it is: Fabric.unwrap, the
// one caller, hands it back.
func (m *WireMsg) packet(lent *Packet) *Packet {
	*lent = Packet{Src: int(m.src), Dst: int(m.dst), Kind: m.kind, owned: m.owned, Tag: int(m.tag), Seq: uint64(m.seq), Wave: int(m.wave)}
	if m.spanAux {
		lent.SpanID = m.aux
	} else {
		lent.PSeq = m.aux
	}
	if b := m.body; b != nil {
		lent.Data, lent.VSize = b.data, b.vsize
	}
	return lent
}
