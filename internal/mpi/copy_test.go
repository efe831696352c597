package mpi

import (
	"bytes"
	"slices"
	"testing"
	"time"
	"unsafe"

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

// TestF64ChunkPieces: every Put is a fresh piece of 8 bytes with no spare
// capacity, so no two pieces overlap and an append to one copies it
// instead of writing into the next — each piece may be sent and shared as
// read-only Data.  64 pieces cost one chunk.
func TestF64ChunkPieces(t *testing.T) {
	var c F64Chunk
	pieces := make([][]byte, 3*f64ChunkBytes/8) // three chunks' worth
	for i := range pieces {
		pieces[i] = c.Put(float64(i))
	}
	for i, b := range pieces {
		if len(b) != 8 || cap(b) != 8 || DecodeF64(b) != float64(i) {
			t.Fatalf("piece %d: len %d cap %d value %v, want 8, 8 and %d", i, len(b), cap(b), DecodeF64(b), i)
		}
		for j := range i {
			if lo, hi := uintptr(unsafe.Pointer(&b[0])), uintptr(unsafe.Pointer(&pieces[j][0])); lo < hi+8 && hi < lo+8 {
				t.Fatalf("pieces %d and %d overlap", j, i)
			}
		}
	}
	grown := append(pieces[0], 0xff)
	if &grown[0] == &pieces[0][0] || DecodeF64(pieces[1]) != 1 {
		t.Fatal("an append to one piece reached the next")
	}
	if n := testing.AllocsPerRun(10, func() {
		for range f64ChunkBytes / 8 {
			c.Put(1)
		}
	}); n != 1 {
		t.Fatalf("%v allocations per %d pieces, want 1", n, f64ChunkBytes/8)
	}
}

// TestSendHandsOverBuffer: a payload buffer passed to a send becomes the
// packet's Data and is read-only from then on (Packet.Data), so the engine
// copies none.  The receiver of a Send or Sendrecv holds the sender's own
// backing array, and AllgatherB returns and forwards each caller's own
// block.
func TestSendHandsOverBuffer(t *testing.T) {
	const p = 4
	buf := func(r, i int) []byte { return []byte{byte(r), byte(i)} }
	sends, srs, ags := make([][]byte, p), make([][]byte, p), make([][]byte, p)
	type result struct {
		send, sr []byte
		ag       [][]byte
	}
	got := make([]result, p)
	err := newWorld(t, p).Run(func(e *Engine) {
		r := e.Rank()
		right, left := (r+1)%p, (r+p-1)%p
		sends[r], srs[r], ags[r] = buf(r, 0), buf(r, 1), buf(r, 2)
		e.Send(right, 1, sends[r], 0)
		got[r].send = e.Recv(left, 1).Data
		got[r].sr = e.Sendrecv(right, 2, srs[r], 0, left, 2).Data
		got[r].ag = e.AllgatherB(ags[r])
	})
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []byte) bool { return len(a) > 0 && unsafe.SliceData(a) == unsafe.SliceData(b) }
	for r, g := range got {
		left := (r + p - 1) % p
		if !same(g.send, sends[left]) || !same(g.sr, srs[left]) {
			t.Errorf("rank %d: Recv and Sendrecv data are copies of rank %d's buffers", r, left)
		}
		for i := range p {
			if !same(g.ag[i], ags[i]) {
				t.Errorf("rank %d: AllgatherB block %d is a copy of rank %d's block", r, i, i)
			}
		}
	}
}

// TestSendrecvAllocsPinned: an exchange of pre-encoded buffers between two
// ranks allocates nothing per payload: the engine hands the buffer over
// instead of copying it, each packet's header rides in its wire record
// and its Data in a body slot that a consumed message handed back to the
// Fabric (Fabric.Send).  AllocsPerRun's
// whole-number mean is 0; a copy of each buffer would make it 2, and a
// heap Packet per message 2 as well.
func TestSendrecvAllocsPinned(t *testing.T) {
	const runs, perExchange = 100, 0
	var allocs float64
	err := newWorld(t, 2).Run(func(e *Engine) {
		peer := 1 - e.Rank()
		halo := EncodeF64s(make([]float64, 128)) // a 1 KB halo row
		exchange := func() { e.Sendrecv(peer, 1, halo, 0, peer, 1) }
		exchange() // opens the links and sizes the queues
		if e.Rank() == 1 {
			for range runs + 1 { // AllocsPerRun makes one warm-up call
				exchange()
			}
			return
		}
		// Every malloc of the run while rank 0 is inside AllocsPerRun
		// counts: rank 1's, the network's and the kernel's too.
		allocs = testing.AllocsPerRun(runs, exchange)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > perExchange {
		t.Errorf("%v allocations per Sendrecv exchange of a 1 KB buffer, want at most %d", allocs, perExchange)
	}
}

// TestSendrecvF64sAllocsPinned: a halo exchange of float64 rows allocates
// nothing once warm.  Each side encodes its row into an owned buffer
// (Packet.owned) drawn from the fabric, and the receiver decodes the row
// into place and gives the buffer back, so after the first exchange the
// rows circulate through two buffers.  A fresh encoding per send would
// make it 2; the rows must also arrive intact.
func TestSendrecvF64sAllocsPinned(t *testing.T) {
	const runs, perExchange = 100, 0
	var allocs float64
	bad := false
	err := newWorld(t, 2).Run(func(e *Engine) {
		peer := 1 - e.Rank()
		row, ghost := make([]float64, 128), make([]float64, 128) // 1 KB rows
		i := 0
		exchange := func() {
			i++
			row[0], row[127] = float64(i), float64(e.Rank())
			e.SendrecvF64s(peer, 1, row, peer, 1, ghost)
			bad = bad || ghost[0] != float64(i) || ghost[127] != float64(peer)
		}
		exchange() // opens the links, sizes the queues and the spare list
		if e.Rank() == 1 {
			for range runs + 1 { // AllocsPerRun makes one warm-up call
				exchange()
			}
			return
		}
		allocs = testing.AllocsPerRun(runs, exchange)
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad {
		t.Error("a halo row arrived with other values than its sender's")
	}
	if allocs > perExchange {
		t.Errorf("%v allocations per SendrecvF64s exchange of a 1 KB row, want at most %d", allocs, perExchange)
	}
}

// TestOwnedPayloadRecycledOnce: a buffer comes back to the fabric only
// from the receiver of a payload that arrived owned.  A protocol that
// clones a packet, on either side, makes it shared, and Send never sends
// owned, so neither is recycled.
func TestOwnedPayloadRecycledOnce(t *testing.T) {
	spare := func(w *World) (n int) {
		for _, s := range w.Fab.spare {
			n += len(s)
		}
		return n
	}
	for _, tc := range []struct {
		name   string
		filter func(w *World)
		want   int
	}{
		{"owned", func(*World) {}, 2},
		{"clone-out", func(w *World) { w.Engines[0].SetFilter(cloneFilter{out: true}) }, 1},
		{"clone-in", func(w *World) { w.Engines[0].SetFilter(cloneFilter{}) }, 1},
	} {
		w := newWorld(t, 2)
		err := w.Run(func(e *Engine) {
			if e.Rank() == 0 {
				tc.filter(w)
			}
			peer := 1 - e.Rank()
			e.SendrecvF64s(peer, 1, []float64{1}, peer, 1, make([]float64, 1))
			e.Send(peer, 2, []byte{2}, 0)
			e.Recv(peer, 2)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := spare(w); got != tc.want {
			t.Errorf("%s: %d buffers recycled, want %d", tc.name, got, tc.want)
		}
	}
}

// cloneFilter keeps a Clone of every payload it sees, on the way out when
// out is set, else on the way in.
type cloneFilter struct{ out bool }

func (f cloneFilter) OutPayload(p *Packet) bool {
	if f.out {
		p.Clone()
	}
	return true
}

func (f cloneFilter) InPacket(p *Packet) bool {
	if !f.out {
		p.Clone()
	}
	return true
}

// TestAllreduceAllocs pins AllreduceF64 at np=8 to little more than its
// results: each rank allocates its result and the encoding of its partial
// sum for its parent, rank 0 the encoding of the result it broadcasts, and
// the 14 messages reuse body slots that consumed messages handed back.
// That is 16 objects per call, 2 per rank (2.11 while each message carved
// a 128th of a body chunk, which the bound still allows); decoding every child's sum
// into a temporary, re-encoding the result once per child and decoding it
// into a fresh slice made it 36 (50 with a heap Packet per message).
// Every rank reduces the same vector, so the result is checked too.
func TestAllreduceAllocs(t *testing.T) {
	const np, runs, perRank = 8, 128, 2.125
	x := []float64{1, 2, 3, 4}
	var total float64
	err := newWorld(t, np).Run(func(e *Engine) {
		call := func() {
			if got := e.AllreduceF64(OpSum, x); !slices.Equal(got, []float64{8, 16, 24, 32}) {
				t.Errorf("rank %d: allreduce %v", e.Rank(), got)
			}
		}
		call() // opens the links and sizes the queues
		if e.Rank() != 0 {
			for range runs + 1 { // AllocsPerRun makes one warm-up call
				call()
			}
			return
		}
		// Every malloc of the run while rank 0 is inside AllocsPerRun
		// counts: every rank's, the network's and the kernel's.
		total = testing.AllocsPerRun(runs, call)
	})
	if err != nil {
		t.Fatal(err)
	}
	if perCall := total / np; perCall > perRank {
		t.Errorf("%v allocations per AllreduceF64 per rank (%v per call), want at most %v", perCall, total, perRank)
	}
}

// checkpointMid runs op on every rank of a p-rank asynchronous world (so
// early packets reach an unexpected queue, and so an image, while a rank
// computes), captures every engine's image at virtual time at, and lets
// the live run finish.  inspect sees the engines at the capture.  Then it
// runs op again in a fresh world restored from the images, and fails if
// either run changed an image after the capture: the images share the
// live run's sent and received bytes, never a buffer it writes.  op's
// restored flag is set in the second run.
func checkpointMid[T any](t *testing.T, p int, prof Profile, at time.Duration, inspect func(es []*Engine, imgs []*EngineImage),
	op func(e *Engine, restored bool) T) (live, restored []T) {
	t.Helper()
	prof.Async = true
	encode := func(imgs []*EngineImage) []byte { return AppendState(nil, imgs) }
	w := NewWorld(sim.New(1), testTopo(p), prof, p, 1)
	imgs := make([]*EngineImage, p)
	var captured []byte
	w.K.At(sim.Time(at), func() {
		for r, e := range w.Engines {
			imgs[r] = e.CaptureImage()
		}
		inspect(w.Engines, imgs)
		captured = encode(imgs)
	})
	live = make([]T, p)
	if err := w.Run(func(e *Engine) { live[e.Rank()] = op(e, false) }); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("the run ended before the capture")
	}
	if !bytes.Equal(encode(imgs), captured) {
		t.Error("the live run changed the captured images")
	}
	w = NewWorld(sim.New(1), testTopo(p), prof, p, 1)
	restored = make([]T, p)
	err := w.Run(func(e *Engine) {
		e.RestoreImage(imgs[e.Rank()])
		restored[e.Rank()] = op(e, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(imgs), captured) {
		t.Error("the restored run changed the images it restored from")
	}
	return live, restored
}

// TestAllgatherCheckpointMidRing checkpoints a 4-rank AllgatherB while
// ranks 0-2 are parked in rounds 0-2 — holding blocks they received and
// will forward without copying — and rank 3 has not entered yet.  The
// images, restored into a fresh world, finish the ring with the same
// blocks as the uninterrupted run, which keeps going after the capture.
func TestAllgatherCheckpointMidRing(t *testing.T) {
	const p = 4
	block := func(r int) []byte { return []byte{byte(r), byte(10 * r), byte(100 + r)} }
	want, got := checkpointMid(t, p, Profile{Name: "test"}, 500*time.Millisecond,
		func(es []*Engine, imgs []*EngineImage) {
			for r, e := range es[:p-1] {
				if e.coll == nil || e.coll.Round != r {
					t.Errorf("rank %d not parked in round %d at the capture: %+v", r, r, e.coll)
				}
			}
			if n := len(imgs[p-1].Unexpected); n != p-1 {
				t.Errorf("rank %d holds %d early blocks at the capture, want %d", p-1, n, p-1)
			}
		},
		func(e *Engine, restored bool) [][]byte {
			if e.Rank() == p-1 && !restored {
				e.Compute(time.Second)
			}
			return e.AllgatherB(block(e.Rank()))
		})
	for r := range want {
		for i := range want[r] {
			if !slices.Equal(want[r][i], block(i)) || !slices.Equal(got[r][i], block(i)) {
				t.Errorf("rank %d block %d: uninterrupted %v, restored %v, want %v",
					r, i, want[r][i], got[r][i], block(i))
			}
		}
	}
}

// TestSendrecvCheckpointMidRecv checkpoints a 2-rank Sendrecv while rank
// 0 is parked in the receive after its send, and rank 1, still computing,
// holds rank 0's message in its unexpected queue.  The restored rank 0
// must not send again: each rank of both runs receives the peer's bytes,
// and rank 1 ends with no second copy of rank 0's message.
func TestSendrecvCheckpointMidRecv(t *testing.T) {
	msg := func(r int) []byte { return []byte{byte(r), 'x'} }
	type result struct {
		data  []byte
		extra int
	}
	want, got := checkpointMid(t, 2, Profile{Name: "test"}, 500*time.Millisecond,
		func(es []*Engine, imgs []*EngineImage) {
			if c := es[0].coll; c == nil || c.Kind != CollSendrecv || !c.Sent {
				t.Errorf("rank 0 not parked in Sendrecv's receive at the capture: %+v", c)
			}
			if u := imgs[1].Unexpected; len(u) != 1 || !bytes.Equal(u[0].Data, msg(0)) || imgs[1].Coll != nil {
				t.Errorf("rank 1 at the capture: %d unexpected, coll %+v", len(u), imgs[1].Coll)
			}
		},
		func(e *Engine, restored bool) result {
			peer := 1 - e.Rank()
			if e.Rank() == 1 && !restored {
				e.Compute(time.Second)
			}
			p := e.Sendrecv(peer, 3, msg(e.Rank()), 0, peer, 3)
			e.Compute(time.Second) // a repeated send arrives meanwhile
			return result{p.Data, len(e.unexpected)}
		})
	for r := range want {
		if !bytes.Equal(want[r].data, msg(1-r)) || !bytes.Equal(got[r].data, msg(1-r)) {
			t.Errorf("rank %d: uninterrupted %v, restored %v, want %v", r, want[r].data, got[r].data, msg(1-r))
		}
		if want[r].extra != 0 || got[r].extra != 0 {
			t.Errorf("rank %d holds %d and %d extra messages after the uninterrupted and restored runs, want 0",
				r, want[r].extra, got[r].extra)
		}
	}
}

// TestAllreduceCheckpointMidReduce checkpoints a 4-rank AllreduceF64 while
// rank 0 holds the partial sum of ranks 0 and 1 in AccF and waits for rank
// 2, which waits for rank 3, still computing.  The live run then adds into
// both accumulators in place, which must not reach the images; the
// restored run finishes with the uninterrupted sum.
func TestAllreduceCheckpointMidReduce(t *testing.T) {
	const p = 4
	x := func(r int) []float64 { return []float64{float64(r + 1), float64(10 * r)} }
	want, got := checkpointMid(t, p, Profile{Name: "test"}, 500*time.Millisecond,
		func(es []*Engine, imgs []*EngineImage) {
			if c := imgs[0].Coll; c == nil || c.Stage != 0 || c.Mask != 2 || !slices.Equal(c.AccF, []float64{3, 10}) {
				t.Errorf("rank 0 at the capture: %+v", c)
			}
			if c := imgs[2].Coll; c == nil || c.Stage != 0 || !slices.Equal(c.AccF, x(2)) {
				t.Errorf("rank 2 at the capture: %+v", c)
			}
		},
		func(e *Engine, restored bool) []float64 {
			if e.Rank() == p-1 && !restored {
				e.Compute(time.Second)
			}
			return e.AllreduceF64(OpSum, x(e.Rank()))
		})
	sum := []float64{10, 60}
	for r := range want {
		if !slices.Equal(want[r], sum) || !slices.Equal(got[r], sum) {
			t.Errorf("rank %d: uninterrupted %v, restored %v, want %v", r, want[r], got[r], sum)
		}
	}
}
