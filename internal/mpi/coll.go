package mpi

import (
	"fmt"
	"slices"
)

// CollKind identifies a collective (or resumable point-to-point) operation.
type CollKind uint8

// Collective kinds.
const (
	CollNone CollKind = iota
	CollBarrier
	CollBcast
	CollReduce
	CollAllreduce
	CollAllgather
	CollAlltoall
	CollSendrecv
	CollWaitall
)

// ReduceOp is a commutative, associative reduction operator.
type ReduceOp uint8

// Reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func applyOp(op ReduceOp, acc, x []float64) {
	if len(acc) != len(x) {
		panic(fmt.Sprintf("mpi: reduce length mismatch %d vs %d", len(acc), len(x)))
	}
	switch op {
	case OpSum:
		for i := range acc {
			acc[i] += x[i]
		}
	case OpMax:
		for i := range acc {
			if x[i] > acc[i] {
				acc[i] = x[i]
			}
		}
	case OpMin:
		for i := range acc {
			if x[i] < acc[i] {
				acc[i] = x[i]
			}
		}
	default:
		panic("mpi: unknown reduce op")
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
	Op      ReduceOp
	AccF    []float64
	Data    []byte
	Blocks  [][]byte
	Resumed bool
}

// clone returns a copy that shares Data and every block, which are sent or
// received bytes and so read-only (Packet.Data).  AccF is copied, since
// applyOp accumulates into it in place, and so is the Blocks slice itself,
// whose entries the live operation keeps filling.
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
	if kind != CollSendrecv && kind != CollWaitall {
		// Point-to-point resumable ops don't consume a collective
		// sequence number: tags stay aligned across ranks that perform
		// different numbers of them.
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

// Barrier blocks until every process has entered it (dissemination
// algorithm, ceil(log2 p) rounds, any process count).
func (e *Engine) Barrier() {
	e.enterOp()
	defer e.exitOp()
	cs, fresh := e.beginColl(CollBarrier)
	if fresh {
		cs.Mask = 1
	}
	p := e.size
	for cs.Mask < p {
		dst := (e.rank + cs.Mask) % p
		src := (e.rank - cs.Mask + p) % p
		tag := collTag(CollBarrier, cs.Seq, cs.Round)
		if !cs.Sent {
			e.send(dst, tag, nil, 0)
			cs.Sent = true
		}
		e.recvMatch(src, tag)
		cs.Mask <<= 1
		cs.Round++
		cs.Sent = false
	}
	e.endColl()
}

// Bcast distributes root's data to every process (binomial tree) and
// returns it on every process: root's own data at the root, and elsewhere
// the bytes that arrived, shared with the packets that carried them.  Both
// are read-only: the root hands data over as in Send.
func (e *Engine) Bcast(root int, data []byte) []byte {
	e.enterOp()
	defer e.exitOp()
	cs, fresh := e.beginColl(CollBcast)
	p := e.size
	rel := (e.rank - root + p) % p
	if fresh {
		cs.Mask = 1
		cs.Stage = 0
		if rel == 0 {
			cs.Data = data
		}
	}
	tag := collTag(CollBcast, cs.Seq, 0)
	if cs.Stage == 0 {
		if rel == 0 {
			for cs.Mask < p {
				cs.Mask <<= 1
			}
		} else {
			for cs.Mask < p {
				if rel&cs.Mask != 0 {
					src := e.rank - cs.Mask
					if src < 0 {
						src += p
					}
					pkt := e.recvMatch(src, tag)
					cs.Data = pkt.Data
					break
				}
				cs.Mask <<= 1
			}
		}
		cs.Mask >>= 1
		cs.Stage = 1
	}
	for cs.Mask > 0 {
		if rel+cs.Mask < p {
			dst := e.rank + cs.Mask
			if dst >= p {
				dst -= p
			}
			e.chargeSend(cs.Data, 0)
			e.send(dst, tag, cs.Data, 0)
		}
		cs.Mask >>= 1
	}
	out := cs.Data
	e.endColl()
	return out
}

// ReduceF64 reduces x with op onto root (binomial tree).  Root receives
// the result; other ranks receive nil.
func (e *Engine) ReduceF64(root int, op ReduceOp, x []float64) []float64 {
	e.enterOp()
	defer e.exitOp()
	cs, fresh := e.beginColl(CollReduce)
	if fresh {
		cs.Op = op
		cs.Mask = 1
		cs.AccF = append([]float64(nil), x...)
	}
	e.reduceSteps(cs, root, CollReduce)
	var out []float64
	if e.rank == root {
		out = cs.AccF
	}
	e.endColl()
	return out
}

// reduceSteps runs the binomial-tree reduction toward root over
// cs.{Mask,AccF}; on return root holds the reduction.
func (e *Engine) reduceSteps(cs *CollState, root int, kind CollKind) {
	p := e.size
	rel := (e.rank - root + p) % p
	tag := collTag(kind, cs.Seq, 0)
	for cs.Mask < p {
		if rel&cs.Mask == 0 {
			srcRel := rel | cs.Mask
			if srcRel < p {
				src := (srcRel + root) % p
				pkt := e.recvMatch(src, tag)
				applyOp(cs.Op, cs.AccF, DecodeF64s(pkt.Data))
			}
		} else {
			dstRel := rel &^ cs.Mask
			dst := (dstRel + root) % p
			buf := EncodeF64s(cs.AccF)
			e.chargeSend(buf, 0)
			e.send(dst, tag, buf, 0)
			cs.Mask = p // done: contribution handed off
			break
		}
		cs.Mask <<= 1
	}
}

// AllreduceF64 reduces x with op and returns the result on every process
// (reduce to rank 0, then binomial broadcast).
func (e *Engine) AllreduceF64(op ReduceOp, x []float64) []float64 {
	e.enterOp()
	defer e.exitOp()
	cs, fresh := e.beginColl(CollAllreduce)
	p := e.size
	if fresh {
		cs.Op = op
		cs.Mask = 1
		cs.Stage = 0
		cs.AccF = append([]float64(nil), x...)
	}
	if cs.Stage == 0 {
		e.reduceSteps(cs, 0, CollAllreduce)
		cs.Stage = 1
		cs.Mask = 1
	}
	// Broadcast the result from rank 0 (stages 1: receive, 2: send down).
	tag := collTag(CollAllreduce, cs.Seq, 1)
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
					cs.AccF = DecodeF64s(pkt.Data)
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
			buf := EncodeF64s(cs.AccF)
			e.chargeSend(buf, 0)
			e.send(e.rank+cs.Mask, tag, buf, 0)
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
			e.chargeSend(cs.Blocks[sendIdx], 0)
			e.send(right, tag, cs.Blocks[sendIdx], 0)
			cs.Sent = true
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

// AlltoallB exchanges blocks[i] with every rank i and returns the blocks
// received, indexed by source rank (pairwise exchange, p-1 rounds).  Every
// block is handed over as in Send: the result's own entry is blocks[rank]
// itself and the others are the received bytes, all read-only.
func (e *Engine) AlltoallB(blocks [][]byte) [][]byte {
	if len(blocks) != e.size {
		panic(fmt.Sprintf("mpi: Alltoall needs %d blocks, got %d", e.size, len(blocks)))
	}
	e.enterOp()
	defer e.exitOp()
	cs, fresh := e.beginColl(CollAlltoall)
	p := e.size
	if fresh {
		cs.Round = 1
		cs.Blocks = make([][]byte, p)
		cs.Blocks[e.rank] = blocks[e.rank]
	}
	for cs.Round < p {
		tag := collTag(CollAlltoall, cs.Seq, cs.Round)
		dst := (e.rank + cs.Round) % p
		src := (e.rank - cs.Round + p) % p
		if !cs.Sent {
			e.chargeSend(blocks[dst], 0)
			e.send(dst, tag, blocks[dst], 0)
			cs.Sent = true
		}
		pkt := e.recvMatch(src, tag)
		cs.Blocks[src] = pkt.Data
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
	case CollBarrier:
		return "barrier"
	case CollBcast:
		return "bcast"
	case CollReduce:
		return "reduce"
	case CollAllreduce:
		return "allreduce"
	case CollAllgather:
		return "allgather"
	case CollAlltoall:
		return "alltoall"
	case CollSendrecv:
		return "sendrecv"
	case CollWaitall:
		return "waitall"
	}
	return fmt.Sprintf("coll(%d)", uint8(k))
}
