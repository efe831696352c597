package mlog

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ftckpt/internal/core/coretest"
	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

func pl(src int, seq uint64, tag int) *mpi.Packet {
	return &mpi.Packet{Src: src, Kind: mpi.KindPayload, PSeq: seq, Tag: tag, Data: []byte{byte(seq)}}
}

func acksTo(wired []*mpi.Packet, dst int) []uint64 {
	var out []uint64
	for _, p := range wired {
		if p.Kind == mpi.KindControl && p.Tag == OpAck && p.Dst == dst {
			out = append(out, p.PSeq)
		}
	}
	return out
}

// TestPessimisticDeliveryGating: a message is delivered and acknowledged
// only once its log is on stable storage, in arrival order.
func TestPessimisticDeliveryGating(t *testing.T) {
	k := sim.New(1)
	h := coretest.New(k, 1, 2)
	m := New(h, 0)
	h.Run(t, func() {
		m.Start()
		if m.InPacket(pl(0, 1, 5)) {
			t.Fatal("payload passed through before logging")
		}
		m.InPacket(pl(0, 2, 5))
		if len(h.OnLog) != 2 {
			t.Fatalf("%d log shipments", len(h.OnLog))
		}
		if len(acksTo(h.Wired, 0)) != 0 {
			t.Fatal("acked before log stored")
		}
		// Second log completes first: nothing delivered (order preserved).
		h.OnLog[1]()
		if h.Col.Count(obs.EvMessageLogged) != 0 {
			t.Fatal("out-of-order delivery")
		}
		h.OnLog[0]()
		if n := h.Col.Count(obs.EvMessageLogged); n != 2 {
			t.Fatalf("delivered %d", n)
		}
		if got := acksTo(h.Wired, 0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("acks %v", got)
		}
		// Both reached the engine in order.
		if p := h.Eng.Recv(0, 5); p.PSeq != 1 {
			t.Fatalf("first delivery %v", p)
		}
		if p := h.Eng.Recv(0, 5); p.PSeq != 2 {
			t.Fatalf("second delivery %v", p)
		}
	})
}

// TestDuplicateSuppression: retransmitted logged messages are dropped and
// re-acknowledged; in-pipeline duplicates are dropped silently.
func TestDuplicateSuppression(t *testing.T) {
	k := sim.New(1)
	h := coretest.New(k, 1, 2)
	m := New(h, 0)
	h.Run(t, func() {
		m.InPacket(pl(0, 1, 5))
		h.OnLog[0]() // logged + delivered + acked
		before := len(acksTo(h.Wired, 0))
		m.InPacket(pl(0, 1, 5)) // retransmission of a logged message
		if got := len(acksTo(h.Wired, 0)); got != before+1 {
			t.Fatalf("dup of logged message not re-acked: %d", got)
		}
		m.InPacket(pl(0, 2, 5))
		m.InPacket(pl(0, 2, 5)) // dup while still in the pipeline
		if len(h.OnLog) != 2 {
			t.Fatalf("pipeline dup re-shipped: %d shipments", len(h.OnLog))
		}
		if n := h.Col.Count(obs.EvMessageLogged); n != 1 {
			t.Fatalf("logged %d messages", n)
		}
	})
}

// TestOutOfOrderHold: a message that overtakes a gap waits until the gap
// fills, then everything delivers in sequence.  A source leaves the
// out-of-order set once the last message it held is released.
func TestOutOfOrderHold(t *testing.T) {
	k := sim.New(1)
	h := coretest.New(k, 1, 2)
	m := New(h, 0)
	h.Run(t, func() {
		m.InPacket(pl(0, 3, 5)) // overtook 1 and 2
		m.InPacket(pl(0, 5, 5)) // and 4
		if len(h.OnLog) != 0 {
			t.Fatal("out-of-order packet entered the pipeline")
		}
		m.InPacket(pl(0, 1, 5))
		m.InPacket(pl(0, 2, 5))
		if len(h.OnLog) != 3 || len(m.ooo[0]) != 1 {
			t.Fatalf("%d shipments and %d held after the first gap filled, want 3 and 1", len(h.OnLog), len(m.ooo[0]))
		}
		m.InPacket(pl(0, 4, 5))
		if len(h.OnLog) != 5 || len(m.ooo) != 0 {
			t.Fatalf("%d shipments and %d sources held after the second gap filled, want 5 and 0", len(h.OnLog), len(m.ooo))
		}
		for _, f := range h.OnLog {
			f()
		}
		for want := uint64(1); want <= 5; want++ {
			if p := h.Eng.Recv(0, 5); p.PSeq != want {
				t.Fatalf("delivery %v, want seq %d", p, want)
			}
		}
	})
}

// TestRecordsSurviveLentReuse: InPacket is lent the engine's receive
// buffer, which every later arrival overwrites (mpi.Filter).  What Mlog
// keeps of a payload — the record it logs and delivers, and one held out
// of order — must stay as it arrived.
func TestRecordsSurviveLentReuse(t *testing.T) {
	k := sim.New(1)
	h := coretest.New(k, 1, 2)
	m := New(h, 0)
	h.Run(t, func() {
		var lent mpi.Packet
		for _, seq := range []uint64{2, 1, 3} { // 2 overtakes 1
			lent = *pl(0, seq, 5)
			m.InPacket(&lent)
		}
		lent = mpi.Packet{Src: 0, Kind: mpi.KindControl, Tag: OpAck, PSeq: 9}
		m.InPacket(&lent)
		if len(h.Logged) != 3 {
			t.Fatalf("%d records shipped, want 3", len(h.Logged))
		}
		for i, set := range h.Logged {
			if p := set[0]; p.PSeq != uint64(i+1) || p.Kind != mpi.KindPayload || len(p.Data) != 1 || p.Data[0] != byte(i+1) {
				t.Errorf("record %d is %+v", i, *p)
			}
		}
		for _, f := range h.OnLog {
			f()
		}
		for want := uint64(1); want <= 3; want++ {
			if p := h.Eng.Recv(0, 5); p.PSeq != want || p.Data[0] != byte(want) {
				t.Fatalf("delivery %v, want seq %d", p, want)
			}
		}
	})
}

// TestSenderBufferAndRetransmit: unacked sends are buffered, cumulative
// acks drop them, and PeerRestarted retransmits the rest.
func TestSenderBufferAndRetransmit(t *testing.T) {
	k := sim.New(1)
	h := coretest.New(k, 0, 2)
	m := New(h, 0)
	h.Run(t, func() {
		for i := 1; i <= 4; i++ {
			p := &mpi.Packet{Src: 0, Dst: 1, Kind: mpi.KindPayload, Tag: 5}
			if !m.OutPayload(p) {
				t.Fatal("mlog blocked a send")
			}
			if p.PSeq != uint64(i) {
				t.Fatalf("PSeq %d, want %d", p.PSeq, i)
			}
		}
		// Cumulative ack for 1..2.
		m.InPacket(&mpi.Packet{Src: 1, Kind: mpi.KindControl, Tag: OpAck, PSeq: 2})
		h.Wired = nil
		m.PeerRestarted(1)
		if len(h.Wired) != 2 || h.Wired[0].PSeq != 3 || h.Wired[1].PSeq != 4 {
			t.Fatalf("retransmitted %v", h.Wired)
		}
	})
}

// TestDeviceStateRoundTrip: protocol state survives an image round trip
// and the restored instance replays pending + logs in order.
func TestDeviceStateRoundTrip(t *testing.T) {
	k := sim.New(1)
	h := coretest.New(k, 1, 3)
	m := New(h, 0)
	h.Run(t, func() {
		// Deliver seq 1; leave seq 2 pending (log store incomplete).
		m.InPacket(pl(0, 1, 5))
		h.OnLog[0]()
		m.InPacket(pl(0, 2, 5))
		// Buffer an unacked send to rank 2.
		m.OutPayload(&mpi.Packet{Src: 1, Dst: 2, Kind: mpi.KindPayload, Tag: 6})
		dev := m.DeviceState()

		h2 := coretest.New(k, 1, 3)
		h2.Eng = h.Eng // reuse the live engine for replay delivery
		m2 := New(h2, 0)
		// Logs after the snapshot: seq 3 from rank 0.
		m2.Restore(dev, []*mpi.Packet{pl(0, 3, 5)}, 1)
		// Drain the engine: seq 1 was consumed pre-snapshot (not ours to
		// replay); 2 came from Pending, 3 from the logs.
		h.Eng.Recv(0, 5) // seq 1 from the first instance's delivery
		if p := h.Eng.Recv(0, 5); p.PSeq != 2 {
			t.Fatalf("pending replay %v", p)
		}
		if p := h.Eng.Recv(0, 5); p.PSeq != 3 {
			t.Fatalf("log replay %v", p)
		}
		// The unacked send retransmits on Start.
		h2.Wired = nil
		m2.Start()
		found := false
		for _, p := range h2.Wired {
			if p.Kind == mpi.KindPayload && p.Dst == 2 && p.PSeq == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("unacked send not retransmitted: %v", h2.Wired)
		}
	})
}

// TestIndependentCheckpointTimer: checkpoints fire on the private timer
// and commit the rank's own recovery line when stored.  Each image is
// durable 1 ms after it is taken, well inside the 10 ms interval, so no
// tick is deferred.
func TestIndependentCheckpointTimer(t *testing.T) {
	k := sim.New(1)
	h := coretest.New(k, 1, 4)
	h.StoreAfter = time.Millisecond
	m := New(h, 10*time.Millisecond)
	h.Run(t, func() {
		m.Start()
		h.K.Go("clock", func(p *sim.Proc) {
			p.Advance(40 * time.Millisecond)
			if len(h.Ckpts) < 2 {
				t.Errorf("ckpts %v", h.Ckpts)
			}
			if len(h.Commits) != len(h.Ckpts) {
				t.Errorf("commits %v vs ckpts %v", h.Commits, h.Ckpts)
			}
			if n := h.Col.Count(obs.EvLocalCkptEnd); n != len(h.Ckpts) {
				t.Errorf("%d local-ckpt-end events for ckpts %v", n, h.Ckpts)
			}
			if n := h.Col.Count(obs.EvCkptDeferred); n != 0 {
				t.Errorf("%d ticks deferred with every image durable in 1 ms", n)
			}
			m.Stop()
		})
	})
}

// TestCheckpointDeferredWhileImageInFlight: admission control.  An image
// store slower than the interval makes the next ticks skip their
// checkpoint, one ckpt-deferred event each, until the image is durable;
// a restart admits its first tick even with the old image still in
// flight.  Rank 1 of 4 ticks at 12.5, 22.5, 32.5 and 42.5 ms, each image
// takes 25 ms, and the restarted instance ticks first at 57.5 ms, before
// image 2 is durable at 67.5 ms.
func TestCheckpointDeferredWhileImageInFlight(t *testing.T) {
	k := sim.New(1)
	h := coretest.New(k, 1, 4)
	h.StoreAfter = 25 * time.Millisecond
	m := New(h, 10*time.Millisecond)
	h.Run(t, func() {
		m.Start()
		h.K.Go("clock", func(p *sim.Proc) {
			p.Advance(45 * time.Millisecond)
			if fmt.Sprint(h.Ckpts, h.Commits) != "[1 2] [1]" {
				t.Errorf("ckpts %v, commits %v; want [1 2] and [1]", h.Ckpts, h.Commits)
			}
			if n := h.Col.Count(obs.EvCkptDeferred); n != 2 {
				t.Errorf("%d ticks deferred, want 2 (22.5 and 32.5 ms)", n)
			}
			m.Stop()
			m.Restore(m.DeviceState(), nil, 0)
			m.Start()
			p.Advance(13 * time.Millisecond)
			if fmt.Sprint(h.Ckpts) != "[1 2 3]" {
				t.Errorf("ckpts %v after a restart, want [1 2 3]: its first tick must checkpoint", h.Ckpts)
			}
			m.Stop()
		})
	})
}

// TestQueuesReuseStorage: the pending and unacked queues hover at a small
// depth for the whole run, so they must cycle through one segment each
// (sim's queue tests hold the queue itself to that), and the device
// state, whose size is the image's, must encode to a pinned value.
func TestQueuesReuseStorage(t *testing.T) {
	// 10 000 accept/drain and send/ack rounds, four deep.
	k := sim.New(1)
	h := coretest.New(k, 1, 2)
	m := New(h, 0)
	send := func(seq uint64) {
		m.OutPayload(&mpi.Packet{Dst: 0, Kind: mpi.KindPayload, Tag: 5, Data: []byte{byte(seq)}})
	}
	h.Run(t, func() {
		m.Start()
		var in, out uint64
		for round := 0; round < 10_000; round++ {
			for i := 0; i < 4; i++ {
				in++
				m.InPacket(pl(0, in, 5))
				out++
				send(out)
			}
			for _, stored := range h.OnLog {
				stored()
			}
			h.OnLog = h.OnLog[:0]
			for i := 0; i < 4; i++ {
				if got := h.Eng.Recv(0, 5); got.PSeq != in-3+uint64(i) {
					t.Fatalf("round %d: delivered PSeq %d out of order", round, got.PSeq)
				}
			}
			m.InPacket(&mpi.Packet{Src: 0, Kind: mpi.KindControl, Tag: OpAck, PSeq: out})
			h.Wired = h.Wired[:0]
		}
		if s := m.pending.Segments(); s != 1 {
			t.Errorf("pending holds %d segments at depth 4, want 1", s)
		}
		if s := m.unacked.Segments(); s != 1 {
			t.Errorf("unacked holds %d segments at depth 4, want 1", s)
		}
		// Pinned for this exact sequence: everything delivered and
		// acknowledged, the destination's empty Unacked entry still
		// encoded.
		devStateIs(t, m, "c6ac6341736cbe50d129c487c364c38fff33251af3f2aea203156a1bceb1f4d3")
		// And mid-flight: three accepted of which the first is stored and
		// delivered, two held; three sent, none acknowledged.
		for i := 0; i < 3; i++ {
			in++
			m.InPacket(pl(0, in, 5))
			out++
			send(out)
		}
		h.OnLog[0]()
		devStateIs(t, m, "6e16c899c8e8b96ff057335fde7c9ab897a5d189c02df2bdd12e0dc1772d8bed")
	})
}

func devStateIs(t *testing.T, m *Mlog, want string) {
	t.Helper()
	dev := m.DeviceState()
	if got := fmt.Sprintf("%x", sha256.Sum256(dev)); got != want {
		t.Errorf("device state (%d bytes) hashes to %s, recorded %s", len(dev), got, want)
	}
}

// TestDevStateCodec: the device state, every field of it and of its
// packets non-zero, comes back from its encoding deep-equal, encodes to
// the same bytes before and after another type was encoded, and is as long
// as mpi.StateSize says.
func TestDevStateCodec(t *testing.T) {
	pkt := func(n int) mpi.Packet {
		return mpi.Packet{Src: n, Dst: n + 1, Kind: mpi.KindPayload, Tag: n + 2, Seq: uint64(n + 3), Wave: n + 4,
			PSeq: uint64(n + 5), SpanID: uint64(n + 6), Data: []byte{byte(n), 7}, VSize: int64(n + 8)}
	}
	ds := devState{Wave: 2, SendSeq: map[int]uint64{2: 3, 3: 1}, DelUpTo: map[int]uint64{0: 5},
		Unacked: []unackedTo{{2, []mpi.Packet{pkt(1), pkt(2)}}, {3, []mpi.Packet{pkt(3)}}}, Pending: []mpi.Packet{pkt(4)}}
	b := mpi.AppendState(nil, &ds)
	if n := mpi.StateSize(&ds); n != len(b) {
		t.Errorf("StateSize %d, encoding %d bytes", n, len(b))
	}
	var got devState
	if err := mpi.LoadState(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ds) {
		t.Errorf("decoded %+v, want %+v", got, ds)
	}
	mpi.AppendState(nil, &mpi.EngineImage{Unexpected: []*mpi.Packet{&ds.Pending[0]}, CollSeq: 1})
	if !bytes.Equal(mpi.AppendState(nil, &ds), b) {
		t.Error("encodes to other bytes after another type was encoded")
	}
}

// TestDeviceStateUnackedRoundTrip: the unacknowledged sends go into the
// image and come back from it as the same packets, in order, per
// destination.  A send already acknowledged but queued behind an older
// unacknowledged one (rank 3's) is neither imaged nor retransmitted.
func TestDeviceStateUnackedRoundTrip(t *testing.T) {
	k := sim.New(1)
	h := coretest.New(k, 1, 4)
	m := New(h, 0)
	h.Run(t, func() {
		m.OutPayload(&mpi.Packet{Src: 1, Dst: 2, Kind: mpi.KindPayload, Tag: 6, Data: []byte("ab")})
		m.OutPayload(&mpi.Packet{Src: 1, Dst: 2, Kind: mpi.KindPayload, Tag: 6, VSize: 4 << 10})
		m.OutPayload(&mpi.Packet{Src: 1, Dst: 3, Kind: mpi.KindPayload, Tag: 6, VSize: 64})
		m.OutPayload(&mpi.Packet{Src: 1, Dst: 2, Kind: mpi.KindPayload, Tag: 7, Data: []byte("c")})
		m.InPacket(&mpi.Packet{Src: 2, Kind: mpi.KindControl, Tag: OpAck, PSeq: 1})
		m.InPacket(&mpi.Packet{Src: 3, Kind: mpi.KindControl, Tag: OpAck, PSeq: 1})
		m.InPacket(pl(0, 1, 5)) // held: its log store is still open
		dev := m.DeviceState()
		// Pinned: the size is the image's.
		if len(dev) != 346 {
			t.Errorf("device state is %d bytes, recorded 346", len(dev))
		}
		h.Wired = nil
		m.PeerRestarted(3)
		m.PeerRestarted(2)
		if len(h.Wired) != 2 || h.Wired[0].PSeq != 2 || string(h.Wired[1].Data) != "c" {
			t.Errorf("retransmitted %v, want rank 2's PSeq 2 and 3 only", h.Wired)
		}
		h2 := coretest.New(k, 1, 4)
		h2.Eng = h.Eng // the held record is delivered at restore
		m2 := New(h2, 0)
		m2.Restore(dev, nil, 1)
		var was, got devState
		for _, d := range []struct {
			dev []byte
			ds  *devState
		}{{dev, &was}, {m2.DeviceState(), &got}} {
			if err := mpi.LoadState(d.dev, d.ds); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got.Unacked, was.Unacked) || !reflect.DeepEqual(got.SendSeq, was.SendSeq) {
			t.Errorf("restored unacked %v (send seqs %v), want %v (%v)", got.Unacked, got.SendSeq, was.Unacked, was.SendSeq)
		}
		if u := was.Unacked; len(u) != 2 || u[0].Dst != 2 || u[1].Dst != 3 || len(u[1].Pkts) != 0 ||
			len(u[0].Pkts) != 2 || u[0].Pkts[0].PSeq != 2 || string(u[0].Pkts[1].Data) != "c" {
			t.Errorf("imaged unacked %v, want rank 2's PSeq 2 and 3 and an empty entry for rank 3", u)
		}
	})
}
