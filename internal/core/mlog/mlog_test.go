package mlog

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"ftckpt/internal/core"
	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// fakeHost records effects; log stores complete on demand, and so do
// image stores unless storeAfter is set.
type fakeHost struct {
	rank, size int
	k          *sim.Kernel
	eng        *mpi.Engine
	col        obs.Collector // the events the protocol emitted
	hub        *obs.Hub
	wired      []*mpi.Packet
	ckpts      []int
	commits    []int
	onLog      []func()
	onImg      []func()
	// storeAfter > 0 reports every image durable that long after it was
	// taken, as the runtime does when its store completes.
	storeAfter sim.Time
}

func (h *fakeHost) Rank() int           { return h.rank }
func (h *fakeHost) Size() int           { return h.size }
func (h *fakeHost) Engine() *mpi.Engine { return h.eng }
func (h *fakeHost) Obs() *obs.Hub {
	if h.hub == nil {
		h.hub = obs.NewHub(&h.col)
	}
	return h.hub
}
func (h *fakeHost) Wire(dst int, p mpi.Packet) {
	p.Dst = dst
	h.wired = append(h.wired, &p)
}
func (h *fakeHost) TakeCheckpoint(wave int, dev []byte, onStored func()) {
	h.ckpts = append(h.ckpts, wave)
	if h.storeAfter > 0 {
		h.k.After(h.storeAfter, onStored)
		return
	}
	h.onImg = append(h.onImg, onStored)
}
func (h *fakeHost) ShipLogs(wave int, pkts []*mpi.Packet, done core.LogSink) {
	h.onLog = append(h.onLog, done.LogsStored)
}
func (h *fakeHost) CommitWave(w int) { h.commits = append(h.commits, w) }
func (h *fakeHost) Now() sim.Time    { return h.k.Now() }
func (h *fakeHost) After(d sim.Time, fn func()) sim.EventID {
	return h.k.After(d, fn)
}
func (h *fakeHost) Cancel(id sim.EventID) bool { return h.k.Cancel(id) }

func withEngine(t *testing.T, h *fakeHost, body func()) {
	t.Helper()
	net := simnet.New(h.k, simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "t", Nodes: 1, NICBW: 1e9, Latency: time.Microsecond,
	}}})
	fab := mpi.NewFabric(net)
	fab.Place(h.rank, 0)
	h.k.Go("host", func(lp *sim.Proc) {
		h.eng = mpi.NewEngine(h.rank, h.size, lp, mpi.Profile{}, fab)
		body()
	})
	if err := h.k.Run(); err != nil {
		t.Fatal(err)
	}
}

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
	h := &fakeHost{rank: 1, size: 2, k: k}
	m := New(h, 0)
	withEngine(t, h, func() {
		m.Start()
		if m.InPacket(pl(0, 1, 5)) {
			t.Fatal("payload passed through before logging")
		}
		m.InPacket(pl(0, 2, 5))
		if len(h.onLog) != 2 {
			t.Fatalf("%d log shipments", len(h.onLog))
		}
		if len(acksTo(h.wired, 0)) != 0 {
			t.Fatal("acked before log stored")
		}
		// Second log completes first: nothing delivered (order preserved).
		h.onLog[1]()
		if h.col.Count(obs.EvMessageLogged) != 0 {
			t.Fatal("out-of-order delivery")
		}
		h.onLog[0]()
		if n := h.col.Count(obs.EvMessageLogged); n != 2 {
			t.Fatalf("delivered %d", n)
		}
		if got := acksTo(h.wired, 0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("acks %v", got)
		}
		// Both reached the engine in order.
		if p := h.eng.Recv(0, 5); p.PSeq != 1 {
			t.Fatalf("first delivery %v", p)
		}
		if p := h.eng.Recv(0, 5); p.PSeq != 2 {
			t.Fatalf("second delivery %v", p)
		}
	})
}

// TestDuplicateSuppression: retransmitted logged messages are dropped and
// re-acknowledged; in-pipeline duplicates are dropped silently.
func TestDuplicateSuppression(t *testing.T) {
	k := sim.New(1)
	h := &fakeHost{rank: 1, size: 2, k: k}
	m := New(h, 0)
	withEngine(t, h, func() {
		m.InPacket(pl(0, 1, 5))
		h.onLog[0]() // logged + delivered + acked
		before := len(acksTo(h.wired, 0))
		m.InPacket(pl(0, 1, 5)) // retransmission of a logged message
		if got := len(acksTo(h.wired, 0)); got != before+1 {
			t.Fatalf("dup of logged message not re-acked: %d", got)
		}
		m.InPacket(pl(0, 2, 5))
		m.InPacket(pl(0, 2, 5)) // dup while still in the pipeline
		if len(h.onLog) != 2 {
			t.Fatalf("pipeline dup re-shipped: %d shipments", len(h.onLog))
		}
		if n := h.col.Count(obs.EvMessageLogged); n != 1 {
			t.Fatalf("logged %d messages", n)
		}
	})
}

// TestOutOfOrderHold: a message that overtakes a gap waits until the gap
// fills, then everything delivers in sequence.
func TestOutOfOrderHold(t *testing.T) {
	k := sim.New(1)
	h := &fakeHost{rank: 1, size: 2, k: k}
	m := New(h, 0)
	withEngine(t, h, func() {
		m.InPacket(pl(0, 3, 5)) // overtook 1 and 2
		if len(h.onLog) != 0 {
			t.Fatal("out-of-order packet entered the pipeline")
		}
		m.InPacket(pl(0, 1, 5))
		m.InPacket(pl(0, 2, 5))
		if len(h.onLog) != 3 {
			t.Fatalf("%d shipments after gap filled", len(h.onLog))
		}
		for _, f := range h.onLog {
			f()
		}
		for want := uint64(1); want <= 3; want++ {
			if p := h.eng.Recv(0, 5); p.PSeq != want {
				t.Fatalf("delivery %v, want seq %d", p, want)
			}
		}
	})
}

// TestSenderBufferAndRetransmit: unacked sends are buffered, cumulative
// acks drop them, and PeerRestarted retransmits the rest.
func TestSenderBufferAndRetransmit(t *testing.T) {
	k := sim.New(1)
	h := &fakeHost{rank: 0, size: 2, k: k}
	m := New(h, 0)
	withEngine(t, h, func() {
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
		h.wired = nil
		m.PeerRestarted(1)
		if len(h.wired) != 2 || h.wired[0].PSeq != 3 || h.wired[1].PSeq != 4 {
			t.Fatalf("retransmitted %v", h.wired)
		}
	})
}

// TestDeviceStateRoundTrip: protocol state survives an image round trip
// and the restored instance replays pending + logs in order.
func TestDeviceStateRoundTrip(t *testing.T) {
	k := sim.New(1)
	h := &fakeHost{rank: 1, size: 3, k: k}
	m := New(h, 0)
	withEngine(t, h, func() {
		// Deliver seq 1; leave seq 2 pending (log store incomplete).
		m.InPacket(pl(0, 1, 5))
		h.onLog[0]()
		m.InPacket(pl(0, 2, 5))
		// Buffer an unacked send to rank 2.
		m.OutPayload(&mpi.Packet{Src: 1, Dst: 2, Kind: mpi.KindPayload, Tag: 6})
		dev := m.DeviceState()

		h2 := &fakeHost{rank: 1, size: 3, k: k}
		h2.eng = h.eng // reuse the live engine for replay delivery
		m2 := New(h2, 0)
		// Logs after the snapshot: seq 3 from rank 0.
		m2.Restore(dev, []*mpi.Packet{pl(0, 3, 5)}, 1)
		// Drain the engine: seq 1 was consumed pre-snapshot (not ours to
		// replay); 2 came from Pending, 3 from the logs.
		h.eng.Recv(0, 5) // seq 1 from the first instance's delivery
		if p := h.eng.Recv(0, 5); p.PSeq != 2 {
			t.Fatalf("pending replay %v", p)
		}
		if p := h.eng.Recv(0, 5); p.PSeq != 3 {
			t.Fatalf("log replay %v", p)
		}
		// The unacked send retransmits on Start.
		h2.wired = nil
		m2.Start()
		found := false
		for _, p := range h2.wired {
			if p.Kind == mpi.KindPayload && p.Dst == 2 && p.PSeq == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("unacked send not retransmitted: %v", h2.wired)
		}
	})
}

// TestIndependentCheckpointTimer: checkpoints fire on the private timer
// and commit the rank's own recovery line when stored.  Each image is
// durable 1 ms after it is taken, well inside the 10 ms interval, so no
// tick is deferred.
func TestIndependentCheckpointTimer(t *testing.T) {
	k := sim.New(1)
	h := &fakeHost{rank: 1, size: 4, k: k, storeAfter: time.Millisecond}
	m := New(h, 10*time.Millisecond)
	withEngine(t, h, func() {
		m.Start()
		h.k.Go("clock", func(p *sim.Proc) {
			p.Advance(40 * time.Millisecond)
			if len(h.ckpts) < 2 {
				t.Errorf("ckpts %v", h.ckpts)
			}
			if len(h.commits) != len(h.ckpts) {
				t.Errorf("commits %v vs ckpts %v", h.commits, h.ckpts)
			}
			if n := h.col.Count(obs.EvLocalCkptEnd); n != len(h.ckpts) {
				t.Errorf("%d local-ckpt-end events for ckpts %v", n, h.ckpts)
			}
			if n := h.col.Count(obs.EvCkptDeferred); n != 0 {
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
	h := &fakeHost{rank: 1, size: 4, k: k, storeAfter: 25 * time.Millisecond}
	m := New(h, 10*time.Millisecond)
	withEngine(t, h, func() {
		m.Start()
		h.k.Go("clock", func(p *sim.Proc) {
			p.Advance(45 * time.Millisecond)
			if fmt.Sprint(h.ckpts, h.commits) != "[1 2] [1]" {
				t.Errorf("ckpts %v, commits %v; want [1 2] and [1]", h.ckpts, h.commits)
			}
			if n := h.col.Count(obs.EvCkptDeferred); n != 2 {
				t.Errorf("%d ticks deferred, want 2 (22.5 and 32.5 ms)", n)
			}
			m.Stop()
			m.Restore(m.DeviceState(), nil, 0)
			m.Start()
			p.Advance(13 * time.Millisecond)
			if fmt.Sprint(h.ckpts) != "[1 2 3]" {
				t.Errorf("ckpts %v after a restart, want [1 2 3]: its first tick must checkpoint", h.ckpts)
			}
			m.Stop()
		})
	})
}

// TestQueuesReuseStorage: the pending and unacked queues hover at a small
// depth for the whole run, so they must cycle through one segment each
// (sim's queue tests hold the queue itself to that), and the device
// state, whose size is the image's, must encode exactly what it did when
// the queues were front-sliced slices.
func TestQueuesReuseStorage(t *testing.T) {
	// 10 000 accept/drain and send/ack rounds, four deep.
	k := sim.New(1)
	h := &fakeHost{rank: 1, size: 2, k: k}
	m := New(h, 0)
	send := func(seq uint64) {
		m.OutPayload(&mpi.Packet{Dst: 0, Kind: mpi.KindPayload, Tag: 5, Data: []byte{byte(seq)}})
	}
	withEngine(t, h, func() {
		m.Start()
		var in, out uint64
		for round := 0; round < 10_000; round++ {
			for i := 0; i < 4; i++ {
				in++
				m.InPacket(pl(0, in, 5))
				out++
				send(out)
			}
			for _, stored := range h.onLog {
				stored()
			}
			h.onLog = h.onLog[:0]
			for i := 0; i < 4; i++ {
				if got := h.eng.Recv(0, 5); got.PSeq != in-3+uint64(i) {
					t.Fatalf("round %d: delivered PSeq %d out of order", round, got.PSeq)
				}
			}
			m.InPacket(&mpi.Packet{Src: 0, Kind: mpi.KindControl, Tag: OpAck, PSeq: out})
			h.wired = h.wired[:0]
		}
		if s := m.pending.Segments(); s != 1 {
			t.Errorf("pending holds %d segments at depth 4, want 1", s)
		}
		if s := m.unacked[0].Segments(); s != 1 {
			t.Errorf("unacked holds %d segments at depth 4, want 1", s)
		}
		// Recorded at the parent commit (queues popped by re-slicing) for
		// this exact sequence: everything delivered and acknowledged, the
		// destination's empty Unacked entry still encoded.
		devStateIs(t, m, "faabff33c5a7dd79fc943a3650ecd0ca85967c0160d96859602574f9969fae41")
		// And mid-flight: three accepted of which the first is stored and
		// delivered, two held; three sent, none acknowledged.
		for i := 0; i < 3; i++ {
			in++
			m.InPacket(pl(0, in, 5))
			out++
			send(out)
		}
		h.onLog[0]()
		devStateIs(t, m, "dfd58c9057a2debcd21ca2ab1fc82dca7dfcb6a48c4331c00dc7e28691e61604")
	})
}

func devStateIs(t *testing.T, m *Mlog, want string) {
	t.Helper()
	dev := m.DeviceState()
	if got := fmt.Sprintf("%x", sha256.Sum256(dev)); got != want {
		t.Errorf("device state (%d bytes) hashes to %s, recorded %s", len(dev), got, want)
	}
}
