package mpi

import (
	"slices"
	"testing"
	"time"

	"ftckpt/internal/sim"
)

func TestAppendF64sOddLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendF64s accepted 12 bytes")
		}
	}()
	AppendF64s(nil, make([]byte, 12))
}

// TestAppendF64sInPlace: with room in dst the decode allocates nothing —
// what lets a receiver decode straight into its own vector.
func TestAppendF64sInPlace(t *testing.T) {
	b := EncodeF64s(make([]float64, 64))
	dst := make([]float64, 0, 64)
	if n := testing.AllocsPerRun(100, func() { dst = AppendF64s(dst[:0], b) }); n != 0 {
		t.Fatalf("AppendF64s into a sized dst: %v allocs per run, want 0", n)
	}
}

// TestDecodeF64InPlace: the models decode one value per exchange, so
// DecodeF64 allocates nothing, reads the first value of a longer buffer,
// and still refuses a buffer that is not whole values.
func TestDecodeF64InPlace(t *testing.T) {
	b := EncodeF64s([]float64{2.5, -1})
	var v float64
	if n := testing.AllocsPerRun(100, func() { v = DecodeF64(b) }); n != 0 || v != 2.5 {
		t.Fatalf("DecodeF64 = %v with %v allocs per run, want 2.5 and 0", v, n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeF64 accepted 12 bytes")
		}
	}()
	DecodeF64(make([]byte, 12))
}

// TestSendCopiesCallerBuffer: the public Send keeps MPI buffer semantics —
// the caller may rewrite its buffer the moment the call returns.
func TestSendCopiesCallerBuffer(t *testing.T) {
	w := newWorld(t, 2)
	var got []string
	err := w.Run(func(e *Engine) {
		if e.Rank() == 0 {
			buf := []byte("abc")
			e.Send(1, 1, buf, 0)
			buf[0] = 'z'
			e.Send(1, 1, buf, 0)
			buf[0] = 'q'
			return
		}
		got = append(got, string(e.Recv(0, 1).Data), string(e.Recv(0, 1).Data))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []string{"abc", "zbc"}) {
		t.Fatalf("received %q, want [abc zbc]", got)
	}
}

// TestAllgatherCheckpointMidRing checkpoints a 4-rank AllgatherB while
// ranks 0-2 are parked in rounds 0-2 — holding blocks they received and
// will forward without copying — and rank 3 has not entered yet.  The
// images, restored into a fresh world, finish the ring with the same
// blocks as the uninterrupted run, which keeps going after the capture.
func TestAllgatherCheckpointMidRing(t *testing.T) {
	const p = 4
	block := func(r int) []byte { return []byte{byte(r), byte(10 * r), byte(100 + r)} }
	newAsyncWorld := func() *World {
		// Async: rank 3's early packets reach its unexpected queue (and so
		// its image) while it computes.
		return NewWorld(sim.New(1), testTopo(p), Profile{Name: "test", Async: true}, p, 1)
	}

	w := newAsyncWorld()
	imgs := make([]*EngineImage, p)
	w.K.At(sim.Time(500*time.Millisecond), func() {
		for r, e := range w.Engines {
			if r < p-1 && (e.coll == nil || e.coll.Round != r) {
				t.Errorf("rank %d not parked in round %d at the capture: %+v", r, r, e.coll)
			}
			imgs[r] = e.CaptureImage()
		}
		if n := len(imgs[p-1].Unexpected); n != p-1 {
			t.Errorf("rank %d holds %d early blocks at the capture, want %d", p-1, n, p-1)
		}
	})
	want := make([][][]byte, p)
	err := w.Run(func(e *Engine) {
		if e.Rank() == p-1 {
			e.Compute(time.Second)
		}
		want[e.Rank()] = e.AllgatherB(block(e.Rank()))
	})
	if err != nil {
		t.Fatal(err)
	}

	w = newAsyncWorld()
	got := make([][][]byte, p)
	err = w.Run(func(e *Engine) {
		e.RestoreImage(imgs[e.Rank()])
		got[e.Rank()] = e.AllgatherB(block(e.Rank()))
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		for i := range want[r] {
			if !slices.Equal(want[r][i], block(i)) || !slices.Equal(got[r][i], block(i)) {
				t.Errorf("rank %d block %d: uninterrupted %v, restored %v, want %v",
					r, i, want[r][i], got[r][i], block(i))
			}
		}
	}
}
