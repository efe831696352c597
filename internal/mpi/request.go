package mpi

import "fmt"

// Nonblocking point-to-point.  Isend is eager (the message is handed to
// the device immediately, like Send, so there is nothing to wait for —
// its Request is always complete).  Irecv posts a receive specification
// without blocking; Wait and Waitall complete them in posting order.
//
// Checkpoint interaction follows the same rule as everything else in the
// engine: a Waitall in progress is a resumable operation whose state
// (which requests already completed, with their packets) lives in the
// serializable CollState, so a snapshot taken while blocked inside
// Waitall restores without re-receiving completed requests.

// Request is a handle for a nonblocking operation.
type Request struct {
	// Src and Tag are the posted receive specification (Isend requests
	// have Src == -2 and are born complete).
	Src, Tag int
	// Packet is the received message once the request completes.
	Packet *Packet
	done   bool
}

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.done }

// Isend sends eagerly and returns an already-complete request, for
// symmetry with MPI code structure.  data is handed over as in Send.
func (e *Engine) Isend(dst, tag int, data []byte, vsize int64) *Request {
	e.Send(dst, tag, data, vsize)
	return &Request{Src: -2, Tag: tag, done: true}
}

// Irecv posts a receive without blocking.
func (e *Engine) Irecv(src, tag int) *Request {
	return &Request{Src: src, Tag: tag}
}

// Wait blocks until the request completes.
func (e *Engine) Wait(r *Request) *Packet {
	e.Waitall([]*Request{r})
	return r.Packet
}

// Waitall completes every request, matching posted receives in posting
// order.  It is resumable across a checkpoint: completed requests keep
// their packets, and a restored process re-invoking Waitall with the
// re-posted (identical) requests skips them.
func (e *Engine) Waitall(reqs []*Request) {
	e.enterOp()
	defer e.exitOp()
	cs, fresh := e.beginColl(CollWaitall)
	if fresh {
		cs.Round = 0
		cs.Blocks = make([][]byte, len(reqs))
	}
	if len(cs.Blocks) != len(reqs) {
		panic(fmt.Sprintf("mpi: Waitall resumed with %d requests, had %d", len(reqs), len(cs.Blocks)))
	}
	// Re-deliver packets already consumed before a snapshot.
	for i := 0; i < cs.Round; i++ {
		if reqs[i].Src != -2 && !reqs[i].done {
			reqs[i].Packet = decodeWaitPacket(cs.Blocks[i])
			reqs[i].done = true
		}
	}
	for cs.Round < len(reqs) {
		r := reqs[cs.Round]
		if r.Src == -2 || r.done {
			cs.Round++
			continue
		}
		p := e.recvMatch(r.Src, r.Tag)
		r.Packet = p
		r.done = true
		// Persist the consumed packet inside the resumable state: it has
		// left the unexpected queue, so the checkpoint must carry it.
		cs.Blocks[cs.Round] = encodeWaitPacket(p)
		cs.Round++
	}
	e.endColl()
}

// encodeWaitPacket flattens a packet into the CollState byte store.
func encodeWaitPacket(p *Packet) []byte {
	// src(4) tag(4) vsize(8) data...
	b := make([]byte, 16+len(p.Data))
	putInt32(b[0:], int32(p.Src))
	putInt32(b[4:], int32(p.Tag))
	putInt64(b[8:], p.VSize)
	copy(b[16:], p.Data)
	return b
}

func decodeWaitPacket(b []byte) *Packet {
	if len(b) < 16 {
		panic("mpi: corrupt Waitall state")
	}
	p := &Packet{
		Src:   int(getInt32(b[0:])),
		Tag:   int(getInt32(b[4:])),
		VSize: getInt64(b[8:]),
		Kind:  KindPayload,
	}
	if len(b) > 16 {
		p.Data = append([]byte(nil), b[16:]...)
	}
	return p
}

func putInt32(b []byte, v int32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getInt32(b []byte) int32 {
	return int32(b[0]) | int32(b[1])<<8 | int32(b[2])<<16 | int32(b[3])<<24
}

func putInt64(b []byte, v int64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getInt64(b []byte) int64 {
	var v int64
	for i := 0; i < 8; i++ {
		v |= int64(b[i]) << (8 * i)
	}
	return v
}
