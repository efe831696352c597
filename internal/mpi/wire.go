package mpi

import "math"

// WireMsg is a packet between Fabric.Send and its delivery: the record the
// network's lanes, an engine's inbox and its daemon-service lane hold by
// value.  A marker or control packet travels inline — its header fields
// in the record, no heap object — when it carries no data, its ids, tag
// and wave fit in int32, its Seq in uint32, and at most one of PSeq and
// SpanID is set.  Everything else, every payload included, travels as the
// one heap Packet in box, which the matching engine may keep.
//
// An inline message is rebuilt into a Packet only for the call that
// consumes it (Filter.InPacket, a Bind handler): that Packet is lent, and
// a receiver that keeps it must copy it.
type WireMsg struct {
	box                 *Packet // the packet, when it does not travel inline
	aux                 uint64  // PSeq, or SpanID when spanAux
	src, dst, tag, wave int32
	seq                 uint32
	kind                Kind
	spanAux             bool
}

// fits32 reports whether v survives a round trip through int32.
func fits32(v int) bool { return v == int(int32(v)) }

// newWireMsg puts p on the wire from src to dst as the seq-th packet of
// its link.  It reads p and never keeps it: a boxed message holds a copy.
func newWireMsg(p *Packet, src, dst int, seq uint64) WireMsg {
	if p.Kind != KindPayload && p.Data == nil && p.VSize == 0 && seq <= math.MaxUint32 &&
		fits32(src) && fits32(dst) && fits32(p.Tag) && fits32(p.Wave) && (p.PSeq == 0 || p.SpanID == 0) {
		m := WireMsg{src: int32(src), dst: int32(dst), tag: int32(p.Tag), wave: int32(p.Wave),
			seq: uint32(seq), kind: p.Kind, aux: p.PSeq}
		if p.SpanID != 0 {
			m.aux, m.spanAux = p.SpanID, true
		}
		return m
	}
	b := new(Packet)
	*b = *p
	b.Src, b.Dst, b.Seq = src, dst, seq
	return WireMsg{box: b}
}

// dest returns the destination endpoint.
func (m *WireMsg) dest() int {
	if m.box != nil {
		return m.box.Dst
	}
	return int(m.dst)
}

// payloadSize returns the payload bytes the message represents: none for
// an inline one.
func (m *WireMsg) payloadSize() int64 {
	if m.box != nil {
		return m.box.PayloadSize()
	}
	return 0
}

// packet returns the message as a Packet: the box itself, or the inline
// header rebuilt into lent, which the caller owns and lends.
func (m *WireMsg) packet(lent *Packet) *Packet {
	if m.box != nil {
		return m.box
	}
	*lent = Packet{Src: int(m.src), Dst: int(m.dst), Kind: m.kind, Tag: int(m.tag), Seq: uint64(m.seq), Wave: int(m.wave)}
	if m.spanAux {
		lent.SpanID = m.aux
	} else {
		lent.PSeq = m.aux
	}
	return lent
}
