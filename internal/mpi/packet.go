// Package mpi implements the message-passing layer of the reproduction: a
// compact MPI-like library (point-to-point matching on source and tag,
// blocking Send/Recv/Sendrecv, and the two collectives the workloads
// need, AllreduceF64 and AllgatherB) structured like MPICH's device stack
// so that fault-tolerance protocols can hook the exact points the paper
// instruments:
//
//   - an outgoing gate consulted before every payload reaches the wire
//     (where MPICH2-Pcl's ft-sock channel delays request posts and Nemesis
//     enqueues its "stopper" request), and
//   - an incoming filter seeing every packet before the matching engine
//     (where MPICH-Vcl's daemon logs in-transit messages and Pcl's delayed
//     receive queue holds post-marker packets).
//
// Engines run as logical processes on the sim kernel; the Fabric maps
// endpoints (MPI ranks and runtime services) onto simulated nodes and
// gives each ordered endpoint pair a FIFO channel, as TCP connections do
// in the paper's implementations.
//
// Every piece of engine state that can exist while a process is blocked —
// the unexpected-message queue, progress within a collective, a pending
// send-receive — is serializable, so a coordinated checkpoint can capture
// a process image at any point inside the progress engine, which is what
// BLCR gives the paper's implementations at the OS level.
package mpi

import "fmt"

// SchedulerID is the Vcl checkpoint scheduler endpoint.  MPI processes use
// their rank (0..size-1) as endpoint id; this is the one service endpoint,
// and the lowest id the Fabric hosts (never a valid rank).
const SchedulerID = -2

// Kind discriminates what a packet is.
type Kind uint8

const (
	// KindPayload is application data subject to matching.
	KindPayload Kind = iota
	// KindMarker is a checkpoint-wave marker (Chandy–Lamport / Pcl flush).
	KindMarker
	// KindControl is a protocol or runtime control message, consumed by
	// the protocol filter or a service handler, never by the matching
	// engine.
	KindControl
)

func (k Kind) String() string {
	switch k {
	case KindPayload:
		return "payload"
	case KindMarker:
		return "marker"
	case KindControl:
		return "control"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// packetHeader approximates the per-message envelope bytes on the wire.
const packetHeader = 64

// Packet is one message on a channel.  Payload packets carry either real
// bytes in Data (real kernels) or only a modelled size in VSize (workload
// models); both contribute to transfer time.
type Packet struct {
	Src, Dst int  // endpoint identifiers
	Kind     Kind // payload / marker / control
	// owned marks Data as a buffer the sending engine filled for this
	// message alone, which no holder shares: its receiver may copy it out
	// and recycle it (Engine.release).  It rides in the WireMsg's padding
	// and in Packet's, and the state codec skips it, so images never
	// carry it.
	owned  bool
	Tag    int    // application tag (payload) or protocol opcode (control)
	Seq    uint64 // per-channel sequence, assigned by the Fabric
	Wave   int    // checkpoint wave number (markers, control)
	PSeq   uint64 // protocol sequence (message logging: per-pair, survives restarts)
	SpanID uint64 // causal span of the packet's flight (markers), 0 when untraced
	// Data is shared and read-only once sent, unless owned: a sender hands
	// its buffer over (Engine.Send) and a collective forwards the one it
	// received, so one slice backs packets, logs, images and results.  Copy
	// first.  An owned Data has one holder at a time, and every holder
	// that keeps the packet past a lent call takes its copy with Clone or
	// Retain, which make it shared.
	Data  []byte
	VSize int64 // modelled payload size when Data is empty or symbolic
}

// PayloadSize returns the number of payload bytes the packet represents.
func (p *Packet) PayloadSize() int64 {
	if int64(len(p.Data)) > p.VSize {
		return int64(len(p.Data))
	}
	return p.VSize
}

// WireSize returns the bytes the packet occupies on the wire.
func (p *Packet) WireSize() int64 { return p.PayloadSize() + packetHeader }

func (p *Packet) String() string {
	return fmt.Sprintf("%s %d->%d tag=%d seq=%d wave=%d size=%d",
		p.Kind, p.Src, p.Dst, p.Tag, p.Seq, p.Wave, p.PayloadSize())
}

// Clone returns a copy of the packet's header that shares its Data (used
// when logging channel state and capturing images).  Data is shared unless
// owned, and Clone makes it shared: it clears owned on the copy and on p,
// so no receiver recycles a buffer the copy still holds.
func (p *Packet) Clone() *Packet {
	q := p.Retain()
	return &q
}

// Retain returns a value copy of p for a holder that keeps it past a lent
// call (Mlog's sent and accepted records).  Like Clone, it clears owned on
// both copies.
func (p *Packet) Retain() Packet {
	p.owned = false
	return *p
}
