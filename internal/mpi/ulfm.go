package mpi

// ULFM-style fault reporting: an error-returning mode for the engine,
// mirroring MPIX_ERR_PROC_FAILED / MPIX_ERR_REVOKED and the revoke of
// User-Level Failure Mitigation.  Agreeing on who failed is not an engine
// operation: ftpm tells every survivor with NotifyFailed when it revokes
// the world, and its repair runs the agreement as two rounds of simulated
// flows.
//
// In FT mode (EnableFT) an operation against a rank known to have failed
// does not hang forever waiting for a message that will never come — it
// aborts with a typed ProcFailedError; once the runtime revokes the
// communicator (Revoke), every pending and future operation aborts with
// RevokedError.  Blocking operations can be arbitrarily deep inside a
// collective when the revocation lands, so the abort travels as a panic
// of an ftSignal — the same unwinding idiom the kernel uses to kill a
// parked process — and is converted back into an error at the operation
// boundary (TrySendrecv) or the step loop (ftpm's repair wait).
//
// Determinism: revocation and failure knowledge only change inside kernel
// event context (the dispatcher's repair state machine), and the waiters
// they wake resume in the kernel's (time, seq) order, so the unwind order
// is a pure function of the seed like everything else.

import (
	"errors"
	"fmt"

	"ftckpt/internal/sim"
)

// ErrProcFailed is the sentinel for operations aborted because a peer
// process failed (compare MPIX_ERR_PROC_FAILED).  Concrete errors are
// *ProcFailedError values; errors.Is(err, ErrProcFailed) matches them.
var ErrProcFailed = errors.New("mpi: peer process failed")

// ErrRevoked is the sentinel for operations aborted because the
// communicator was revoked (compare MPIX_ERR_REVOKED).  Concrete errors
// are *RevokedError values; errors.Is(err, ErrRevoked) matches them.
var ErrRevoked = errors.New("mpi: communicator revoked")

// ProcFailedError reports which peer's failure aborted an operation.
type ProcFailedError struct{ Rank int }

// Error renders the failed peer.
func (e *ProcFailedError) Error() string {
	return fmt.Sprintf("mpi: process %d failed", e.Rank)
}

// Is matches the ErrProcFailed sentinel.
func (e *ProcFailedError) Is(target error) bool { return target == ErrProcFailed }

// RevokedError reports which communicator incarnation was revoked.
type RevokedError struct{ Epoch int }

// Error renders the revoked epoch.
func (e *RevokedError) Error() string {
	return fmt.Sprintf("mpi: communicator revoked (epoch %d)", e.Epoch)
}

// Is matches the ErrRevoked sentinel.
func (e *RevokedError) Is(target error) bool { return target == ErrRevoked }

// ftSignal is the panic payload that unwinds a blocked operation after a
// revocation or peer failure.  It never escapes the mpi/ftpm layers:
// TrySendrecv and the process runtime's step loop recover it and turn it
// back into the carried error.
type ftSignal struct{ err error }

// AsFTError recovers the typed error from a panic payload if the panic
// is an FT unwind, nil otherwise.  The process runtime uses it to tell a
// revocation unwind apart from a real crash (which must propagate).
func AsFTError(r any) error {
	if s, ok := r.(ftSignal); ok {
		return s.err
	}
	return nil
}

// EnableFT switches the engine into ULFM error-reporting mode: operations
// against failed ranks abort with typed errors instead of blocking
// forever, and the engine honours Revoke/AwaitRepair/FTReset.
func (e *Engine) EnableFT() {
	e.ft = true
	if e.failed == nil {
		e.failed = make([]bool, e.size)
	}
}

// Revoke marks the communicator revoked (compare MPIX_Comm_revoke): every
// blocked operation wakes and aborts with RevokedError, and new blocking
// operations abort immediately, until FTReset.  Idempotent; callable from
// event context.
func (e *Engine) Revoke() {
	if !e.ft || e.revoked {
		return
	}
	e.revoked = true
	e.alert()
}

// Revoked reports whether the communicator is currently revoked.
func (e *Engine) Revoked() bool { return e.revoked }

// NotifyFailed records that a peer rank failed, waking any operation
// blocked on it so it can abort with ProcFailedError.  Callable from
// event context (the failure detector).
func (e *Engine) NotifyFailed(rank int) {
	if !e.ft || rank < 0 || rank >= e.size || e.failed[rank] {
		return
	}
	e.failed[rank] = true
	e.alert()
}

// AwaitRepair parks the process until the revocation is lifted (FTReset).
// Must be called from the process LP, outside any operation.
func (e *Engine) AwaitRepair() {
	for e.revoked {
		e.park = parkRepair
		e.wait()
	}
	e.park = parkNone
}

// InFlightColl reports the collective operation the process is currently
// inside, CollNone when it is not in one.  The process manager uses it to
// name the aborted operation when a mid-collective failure degrades the
// run.
func (e *Engine) InFlightColl() CollKind {
	if e.coll == nil {
		return CollNone
	}
	return e.coll.Kind
}

// AbortColl discards the in-flight collective state after an FT unwind,
// recycling the CollState exactly as a completed operation would — the
// pooling invariant must survive error paths too.
func (e *Engine) AbortColl() { e.endColl() }

// FTReset rebuilds the engine for the repaired communicator: pending
// messages and in-flight collective state of the revoked incarnation are
// discarded (the CollState returns to its pool), the failure bitmap
// clears, the epoch advances — dropping any packet still in the daemon-
// service pipeline — and parked AwaitRepair callers wake.  Called from
// event context by the repair state machine, after the fabric endpoints
// have been rebound.
func (e *Engine) FTReset() {
	if !e.ft {
		return
	}
	e.AbortColl()
	clear(e.unexpected)
	e.unexpected = e.unexpected[:0]
	e.dropInbox()
	for i := range e.failed {
		e.failed[i] = false
	}
	// The repair cancels in-flight checkpoint stores, so their paired
	// SubSteal will never run; the new incarnation starts at full speed.
	e.steal = 0
	// Collective tags derive from the engine-local collective sequence
	// number; the repaired rank's fresh engine starts at zero, so every
	// survivor realigns to zero too.  Stale tags cannot collide: the
	// fabric flush dropped every packet of the revoked incarnation.
	e.collSeq = 0
	e.revoked = false
	e.epoch++
	e.alert()
}

// alert wakes the LP when a revocation, a peer failure or a repair changes
// what it waits for: a receive's match, which it then checks for an FT
// abort, or the repair.  A send or receive charge runs on: a revocation
// during the send charge aborts once the packet is out, and one during the
// receive charge lets the receive complete.
func (e *Engine) alert() {
	switch e.park {
	case parkMatch:
		e.recvWaited()
		e.park = parkCheck
		e.cond.Signal()
	case parkRepair:
		e.cond.Signal()
	}
}

// ftDue reports whether a receive from src must abort in FT mode: the
// communicator is revoked or src is known to have failed.
func (e *Engine) ftDue(src int) bool {
	return e.ft && (e.revoked || e.failed[src])
}

// ftCheck aborts a blocking receive from the LP when ftDue.  recvMatch runs
// it whenever it looks for the match (parkCheck), so a fresh call, a
// receive whose send just went out and a woken waiter all pass through it
// before touching the queue.
func (e *Engine) ftCheck(src int) {
	if !e.ftDue(src) {
		return
	}
	e.park = parkNone
	if e.revoked {
		panic(ftSignal{&RevokedError{Epoch: e.epoch}})
	}
	panic(ftSignal{&ProcFailedError{Rank: src}})
}

// TrySendrecv is the error-returning exchange of FT mode: it sends a copy
// of data to dst and appends the payload received from src to into.
// Against a failed peer it returns ErrProcFailed, under a revocation
// ErrRevoked, in both cases with into as it was and the in-flight
// operation state released back to its pool.  Outside FT mode it never
// fails.  Unlike Sendrecv it copies: the copy travels owned
// (Packet.owned), and a payload that arrives owned goes back to the
// fabric once appended, so neither side's buffer is shared and a steady
// exchange allocates nothing.
func (e *Engine) TrySendrecv(dst, sendTag int, data []byte, src, recvTag int, into []byte) (out []byte, err error) {
	if e.ft {
		if e.revoked {
			return into, &RevokedError{Epoch: e.epoch}
		}
		if e.failed[dst] {
			return into, &ProcFailedError{Rank: dst}
		}
		if e.failed[src] {
			return into, &ProcFailedError{Rank: src}
		}
		defer func() {
			if r := recover(); r != nil {
				ftErr := AsFTError(r)
				if ftErr == nil {
					panic(r)
				}
				e.AbortColl()
				out, err = into, ftErr
			}
		}()
	}
	e.enterOp()
	defer e.exitOp()
	if e.beginExchange() {
		buf := e.fab.buffer(len(data))
		copy(buf, data)
		e.chargeSend(outSend{dst: dst, tag: sendTag, buf: buf, owned: true, mark: true})
	}
	p := e.endExchange(src, recvTag)
	out = append(into, p.Data...)
	e.release(&p)
	return out, nil
}

// FTProgram is implemented by applications that survive failures in
// place (application-level fault tolerance): they keep in-memory
// snapshots of their own state plus a partner rank's copies, exchanged
// during normal execution, and the repair state machine restores from
// them instead of rolling the whole job back.  Snapshots are identified
// by a level (the iteration they capture); programs keep the two most
// recent levels, because live ranks can be one snapshot interval apart
// and the repair agreement picks the minimum level everyone holds.
type FTProgram interface {
	Program
	// FTLatest returns the newest held own-snapshot level, -1 if none —
	// the program's input to the repair agreement.
	FTLatest() int
	// FTSnapshotTime returns the virtual time the own snapshot at level
	// was taken — the baseline for recovered-work accounting.
	FTSnapshotTime(level int) (sim.Time, bool)
	// FTPeerLatest returns the newest held snapshot level for rank, -1
	// when this program holds no copy of rank's state.
	FTPeerLatest(rank int) int
	// FTPeerSnapshot returns a copy of the held snapshot of rank's state
	// at level, the caller's to keep.
	FTPeerSnapshot(rank, level int) ([]byte, bool)
	// FTRollback restores the program to its own snapshot at level after
	// a repair; false means the level is not held (the caller falls back
	// to a full rollback-restart).
	FTRollback(level int) bool
	// FTInstall loads a snapshot blob into a fresh program instance (the
	// replacement for a failed rank); false means the blob is unusable.
	FTInstall(blob []byte) bool
}
