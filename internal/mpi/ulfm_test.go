package mpi

import (
	"errors"
	"slices"
	"testing"
	"time"

	"ftckpt/internal/sim"
)

// TestRevokeRecyclesCollState is the pooling regression for FT error
// paths: a revocation landing mid-collective must unwind the blocked
// ranks AND return the in-flight CollState to the engine's pool, exactly
// as a completed operation would.
func TestRevokeRecyclesCollState(t *testing.T) {
	w := newWorld(t, 4)
	w.K.After(10*time.Millisecond, func() {
		for _, e := range w.Engines {
			e.Revoke()
		}
	})
	err := w.Run(func(e *Engine) {
		rank := e.Rank()
		e.EnableFT()
		if rank == 3 {
			return // never joins: ranks 0-2 block inside the collective
		}
		defer func() {
			ftErr := AsFTError(recover())
			if ftErr == nil {
				t.Errorf("rank %d: collective did not unwind with an FT error", rank)
				return
			}
			if !errors.Is(ftErr, ErrRevoked) {
				t.Errorf("rank %d: unwound with %v, want ErrRevoked", rank, ftErr)
			}
			if e.coll == nil {
				t.Errorf("rank %d: no in-flight collective state at unwind", rank)
			}
			e.AbortColl()
			if e.coll != nil {
				t.Errorf("rank %d: CollState still in flight after AbortColl", rank)
			}
			if e.collFree == nil {
				t.Errorf("rank %d: CollState leaked instead of returning to the pool", rank)
			}
			e.FTReset()
			if e.Revoked() || e.epoch != 1 {
				t.Errorf("rank %d: FTReset left revoked=%v epoch=%d", rank, e.Revoked(), e.epoch)
			}
			if len(e.unexpected) != 0 || e.inbox.Len() != 0 {
				t.Errorf("rank %d: queues not drained by FTReset: %d unexpected, %d inbox",
					rank, len(e.unexpected), e.inbox.Len())
			}
		}()
		e.AllreduceF64(OpSum, []float64{float64(rank)})
		t.Errorf("rank %d: Allreduce returned despite revocation", rank)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNotifyFailedAbortsBlockedRecv: a blocked receive against a peer
// that is declared failed aborts with a typed ProcFailedError naming the
// peer, instead of hanging forever.
func TestNotifyFailedAbortsBlockedRecv(t *testing.T) {
	w := newWorld(t, 2)
	w.K.After(5*time.Millisecond, func() {
		w.Engines[0].NotifyFailed(1)
	})
	err := w.Run(func(e *Engine) {
		rank := e.Rank()
		e.EnableFT()
		if rank == 1 {
			return // dies silently; never sends
		}
		defer func() {
			ftErr := AsFTError(recover())
			if ftErr == nil {
				t.Error("blocked Recv did not unwind")
				return
			}
			var pf *ProcFailedError
			if !errors.As(ftErr, &pf) || pf.Rank != 1 {
				t.Errorf("unwound with %v, want ProcFailedError{Rank: 1}", ftErr)
			}
			if !errors.Is(ftErr, ErrProcFailed) {
				t.Errorf("%v does not match the ErrProcFailed sentinel", ftErr)
			}
			if e.park != parkNone {
				t.Error("engine still marked parked after the FT unwind")
			}
		}()
		e.Recv(1, 7)
		t.Error("Recv returned despite the peer failure")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTrySendrecvTypedErrors: the error-returning operation refuses
// immediately — no blocking, no panic — with the right sentinel for each
// FT condition and the caller's buffer as it was, and recovers cleanly
// after FTReset.
func TestTrySendrecvTypedErrors(t *testing.T) {
	w := newWorld(t, 2)
	err := w.Run(func(e *Engine) {
		rank := e.Rank()
		e.EnableFT()
		if rank != 0 {
			return
		}
		into := []byte("kept")
		e.NotifyFailed(1)
		if out, err := e.TrySendrecv(1, 3, []byte{1}, 1, 3, into); !errors.Is(err, ErrProcFailed) || string(out) != "kept" {
			t.Errorf("against a failed peer: %q, err = %v, want %q and ErrProcFailed", out, err, into)
		}
		e.Revoke()
		if out, err := e.TrySendrecv(1, 3, []byte{1}, 1, 3, into); !errors.Is(err, ErrRevoked) || string(out) != "kept" {
			t.Errorf("under revocation: %q, err = %v, want %q and ErrRevoked", out, err, into)
		}
		e.FTReset()
		if e.coll != nil {
			t.Error("CollState in flight after refused operations")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFTResetClearsFailures: FTReset clears the failure knowledge and
// advances the epoch.
func TestFTResetClearsFailures(t *testing.T) {
	w := newWorld(t, 4)
	err := w.Run(func(e *Engine) {
		rank := e.Rank()
		e.EnableFT()
		if rank != 0 {
			return
		}
		e.NotifyFailed(2)
		e.NotifyFailed(1)
		e.NotifyFailed(1) // idempotent
		if want := []bool{false, true, true, false}; !slices.Equal(e.failed, want) {
			t.Errorf("failed = %v, want %v", e.failed, want)
		}
		e.FTReset()
		if slices.Contains(e.failed, true) {
			t.Errorf("failure knowledge survived FTReset: %v", e.failed)
		}
		if e.epoch != 1 {
			t.Errorf("epoch = %d after one FTReset, want 1", e.epoch)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAdmitRecDroppedPacketRecycled: a packet caught in the daemon-
// service delay when the communicator is repaired must be dropped: it
// belongs to the revoked incarnation.
func TestAdmitRecDroppedPacketRecycled(t *testing.T) {
	prof := Profile{Name: "daemon", DaemonLatency: 200 * time.Microsecond, Async: true}
	k := sim.New(1)
	w := NewWorld(k, testTopo(2), prof, 2, 1)
	// The packet reaches rank 0's daemon at ~50µs (wire latency) and is
	// admitted at ~250µs; the repair lands in between, so the packet is
	// stamped with the old epoch and must be dropped at admission.
	k.After(150*time.Microsecond, func() { w.Engines[0].FTReset() })
	err := w.Run(func(e *Engine) {
		rank := e.Rank()
		e.EnableFT()
		if rank == 1 {
			e.Send(0, 9, []byte("stale"), 0)
			return
		}
		e.Compute(1 * time.Millisecond)
		if len(e.unexpected) != 0 {
			t.Errorf("a revoked incarnation's packet reached the matching engine: %v", e.unexpected)
		}
		if e.epoch != 1 {
			t.Errorf("epoch = %d, want 1", e.epoch)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
