package mpi

import (
	"fmt"
	"slices"
)

// CollKind identifies a collective (or resumable point-to-point) operation.
type CollKind uint8

// Collective kinds.  The values are not consecutive: collTag folds the
// kind into every collective packet's tag, and Pcl's device state encodes
// delayed packets with their tags, so a renumbering would move image
// sizes.
const (
	CollNone      CollKind = 0
	CollAllreduce CollKind = 4
	CollAllgather CollKind = 5
	CollSendrecv  CollKind = 7
)

// ReduceOp is a reduction operator.  OpSum is the only one, since no
// workload reduces with anything else; the type and AllreduceF64's op
// parameter stay because the benchmark module calls
// AllreduceF64(OpSum, x).
type ReduceOp uint8

// OpSum adds element-wise.
const OpSum ReduceOp = 0

// addF64s adds the values b encodes (EncodeF64s) into acc element-wise,
// decoding in place.
func addF64s(acc []float64, b []byte) {
	if len(b) != 8*len(acc) {
		panic(fmt.Sprintf("mpi: reduce length mismatch %d vs %d", len(acc), len(b)/8))
	}
	for i := range acc {
		acc[i] += DecodeF64(b[8*i : 8*i+8])
	}
}

// CollState is the serializable progress of an in-flight collective.  It is
// part of the checkpoint image, which is what makes it legal to take a
// coordinated checkpoint while a process is blocked inside a collective:
// after restart the re-invoked operation resumes at the recorded round
// instead of re-executing completed sends.
//
// Lifetime rule (its declarations are checked by the pooled-holder rule
// of lint_test.go at the repo root): the engine recycles its CollState
// through Engine.collFree, so a *CollState is valid only while its
// collective is in flight; anything that must outlive the operation (a
// checkpoint image) stores clone() instead.
type CollState struct {
	Kind    CollKind
	Seq     uint64
	Stage   int
	Mask    int
	Round   int
	Sent    bool
	AccF    []float64
	Blocks  [][]byte
	Resumed bool
}

// clone returns a copy that shares every block, which are sent or received
// bytes and so read-only (Packet.Data).  AccF is copied, since addF64s
// accumulates into it in place, and so is the Blocks slice itself, whose
// entries the live operation keeps filling.
func (cs *CollState) clone() *CollState {
	c := *cs
	c.AccF = slices.Clone(cs.AccF)
	c.Blocks = slices.Clone(cs.Blocks)
	return &c
}

// beginColl starts or resumes a collective.  fresh is true when the state
// was newly created (initialize buffers), false when resuming after a
// restore (skip initialization and completed rounds).
func (e *Engine) beginColl(kind CollKind) (cs *CollState, fresh bool) {
	if e.coll != nil {
		if !e.coll.Resumed || e.coll.Kind != kind {
			panic(fmt.Sprintf("mpi: rank %d: %v invoked while %v in flight (resumed=%v)",
				e.rank, kind, e.coll.Kind, e.coll.Resumed))
		}
		e.coll.Resumed = false
		return e.coll, false
	}
	if cs = e.collFree; cs != nil {
		e.collFree = nil
	} else {
		cs = &CollState{}
	}
	cs.Kind = kind
	if kind != CollSendrecv {
		// Sendrecv doesn't consume a collective sequence number: tags
		// stay aligned across ranks that perform different numbers of
		// them.
		e.collSeq++
		cs.Seq = e.collSeq
	}
	e.coll = cs
	return cs, true
}

// endColl retires the in-flight state, recycling the struct.  Nothing may
// retain cs past the operation (images clone it), so reuse is safe; the
// buffer fields are dropped rather than reused because the collectives
// alias caller data into them.
func (e *Engine) endColl() {
	if cs := e.coll; cs != nil {
		*cs = CollState{}
		e.collFree = cs
	}
	e.coll = nil
}

// collTag builds an internal (negative) tag unique per (kind, collective
// sequence mod 64, round): at most two consecutive collectives can have
// packets in flight on one channel, so 64 sequence classes are ample.
func collTag(kind CollKind, seq uint64, round int) int {
	return -(1 + int(kind) + 16*(int(seq%64)+64*round))
}

// AllreduceF64 sums x over every process and returns the result on every
// process (binomial-tree reduce to rank 0, then binomial broadcast).  op
// is OpSum, the only operator (ReduceOp says why the parameter stays).
//
// A rank allocates its result, the encoding of its partial sum for its
// parent, and on rank 0 the encoding of the result: children's partial
// sums are added in as they are decoded, the result is decoded into the
// accumulator, and a rank forwards the bytes it received to all of its
// children, as AllgatherB forwards blocks.  A rank resumed in the
// broadcast's send stage no longer has those bytes and encodes the same
// value from AccF.
func (e *Engine) AllreduceF64(op ReduceOp, x []float64) []float64 {
	e.enterOp()
	defer e.exitOp()
	cs, fresh := e.beginColl(CollAllreduce)
	p := e.size
	if fresh {
		cs.Mask = 1
		cs.Stage = 0
		cs.AccF = append([]float64(nil), x...)
	}
	// Reduce toward rank 0 (stage 0): a rank adds in its children's
	// partial sums, then hands its own to its parent.
	if cs.Stage == 0 {
		tag := collTag(CollAllreduce, cs.Seq, 0)
		for cs.Mask < p {
			if e.rank&cs.Mask == 0 {
				if src := e.rank | cs.Mask; src < p {
					pkt := e.recvMatch(src, tag)
					addF64s(cs.AccF, pkt.Data)
				}
			} else {
				e.chargeSend(outSend{dst: e.rank &^ cs.Mask, tag: tag, buf: EncodeF64s(cs.AccF)})
				e.awaitSend()
				break
			}
			cs.Mask <<= 1
		}
		cs.Stage = 1
		cs.Mask = 1
	}
	// Broadcast the result from rank 0 (stages 1: receive, 2: send down).
	tag := collTag(CollAllreduce, cs.Seq, 1)
	var down []byte // the result's encoding, shared by every child
	if cs.Stage == 1 {
		if e.rank == 0 {
			for cs.Mask < p {
				cs.Mask <<= 1
			}
		} else {
			for cs.Mask < p {
				if e.rank&cs.Mask != 0 {
					src := e.rank - cs.Mask
					pkt := e.recvMatch(src, tag)
					cs.AccF = AppendF64s(cs.AccF[:0], pkt.Data)
					down = pkt.Data
					break
				}
				cs.Mask <<= 1
			}
		}
		cs.Mask >>= 1
		cs.Stage = 2
	}
	for cs.Mask > 0 {
		if e.rank+cs.Mask < p {
			if down == nil {
				down = EncodeF64s(cs.AccF)
			}
			e.chargeSend(outSend{dst: e.rank + cs.Mask, tag: tag, buf: down})
			e.awaitSend()
		}
		cs.Mask >>= 1
	}
	out := cs.AccF
	e.endColl()
	return out
}

// AllgatherB gathers one block from every process on every process (ring
// algorithm, p-1 rounds).  The result is indexed by rank.  block is
// handed over as in Send, and the engine forwards what it holds without
// copying, so the returned blocks, the caller's own among them, are shared
// with the packets that carried them (and with other ranks' results): they
// are read-only.
func (e *Engine) AllgatherB(block []byte) [][]byte {
	e.enterOp()
	defer e.exitOp()
	cs, fresh := e.beginColl(CollAllgather)
	p := e.size
	if fresh {
		cs.Blocks = make([][]byte, p)
		cs.Blocks[e.rank] = block
	}
	right := (e.rank + 1) % p
	left := (e.rank - 1 + p) % p
	for cs.Round < p-1 {
		tag := collTag(CollAllgather, cs.Seq, cs.Round)
		sendIdx := ((e.rank-cs.Round)%p + p) % p
		if !cs.Sent {
			// The round's receive parks behind the send charge.
			e.chargeSend(outSend{dst: right, tag: tag, buf: cs.Blocks[sendIdx], mark: true})
		}
		pkt := e.recvMatch(left, tag)
		recvIdx := ((e.rank-cs.Round-1)%p + p) % p
		cs.Blocks[recvIdx] = pkt.Data
		cs.Round++
		cs.Sent = false
	}
	out := cs.Blocks
	e.endColl()
	return out
}

func (k CollKind) String() string {
	switch k {
	case CollNone:
		return "none"
	case CollAllreduce:
		return "allreduce"
	case CollAllgather:
		return "allgather"
	case CollSendrecv:
		return "sendrecv"
	}
	return fmt.Sprintf("coll(%d)", uint8(k))
}
