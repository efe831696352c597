package pcl

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"ftckpt/internal/core"
	"ftckpt/internal/core/coretest"
	"ftckpt/internal/mpi"
	"ftckpt/internal/sim"
)

// newHost returns a host whose stores complete at once.
func newHost(k *sim.Kernel, rank, size int) *coretest.Host {
	h := coretest.New(k, rank, size)
	h.StoreNow = true
	return h
}

func countKind(pkts []*mpi.Packet, k mpi.Kind) int {
	n := 0
	for _, p := range pkts {
		if p.Kind == k {
			n++
		}
	}
	return n
}

func payload(src, dst int) *mpi.Packet {
	return &mpi.Packet{Src: src, Dst: dst, Kind: mpi.KindPayload, Tag: 1}
}

func TestPclWaveFlushSequence(t *testing.T) {
	k := sim.New(1)
	h := newHost(k, 1, 3) // non-coordinator rank in a 3-process job
	p := New(h, time.Second)
	h.Run(t, func() { pclWaveFlushBody(t, h, p) })
}

func pclWaveFlushBody(t *testing.T, h *coretest.Host, p *Pcl) {
	p.Start()

	// A payload before any wave passes through both gates.
	if !p.OutPayload(payload(1, 2)) {
		t.Fatal("idle protocol delayed a send")
	}
	if !p.InPacket(payload(0, 1)) {
		t.Fatal("idle protocol held a receive")
	}

	// First marker: enter the wave, flood markers, block sends.
	if p.InPacket(&mpi.Packet{Src: 0, Kind: mpi.KindMarker, Wave: 1}) {
		t.Fatal("marker reached the matching engine")
	}
	if got := countKind(h.Wired, mpi.KindMarker); got != 2 {
		t.Fatalf("flooded %d markers, want 2", got)
	}
	if p.OutPayload(payload(1, 2)) {
		t.Fatal("checkpointing protocol did not delay a send")
	}
	// Payload from the flushed channel 0 is held; from channel 2 it is not.
	if p.InPacket(payload(0, 1)) {
		t.Fatal("post-marker payload not delayed")
	}
	if !p.InPacket(payload(2, 1)) {
		t.Fatal("pre-marker payload delayed")
	}
	if len(h.Ckpts) != 0 {
		t.Fatal("checkpoint before all markers")
	}

	// Second (last) marker: snapshot, then release queues in order.
	h.Wired = nil
	p.InPacket(&mpi.Packet{Src: 2, Kind: mpi.KindMarker, Wave: 1})
	if len(h.Ckpts) != 1 || h.Ckpts[0] != 1 {
		t.Fatalf("ckpts %v", h.Ckpts)
	}
	if got := countKind(h.Wired, mpi.KindPayload); got != 1 {
		t.Fatalf("released %d delayed sends, want 1", got)
	}
	// onStored ran synchronously → Done sent to rank 0.
	if got := countKind(h.Wired, mpi.KindControl); got != 1 {
		t.Fatalf("sent %d control packets, want 1 Done", got)
	}
	// Unfrozen afterwards.
	if !p.OutPayload(payload(1, 2)) || !p.InPacket(payload(0, 1)) {
		t.Fatal("protocol still frozen after checkpoint")
	}
}

func TestPclCoordinatorCommitRearm(t *testing.T) {
	k := sim.New(1)
	h := newHost(k, 0, 2)
	p := New(h, 10*time.Millisecond)

	k.Go("driver", func(lp *sim.Proc) {
		p.Start()
		lp.Advance(11 * time.Millisecond) // let the timer fire
		// Wave 1 is active; feed rank 1's marker.
		p.InPacket(&mpi.Packet{Src: 1, Kind: mpi.KindMarker, Wave: 1})
		// Coordinator's own Done plus rank 1's Done commit the wave.
		for _, pkt := range h.Wired {
			if pkt.Kind == mpi.KindControl && pkt.Dst == 0 {
				p.InPacket(pkt)
			}
		}
		p.InPacket(&mpi.Packet{Src: 1, Dst: 0, Kind: mpi.KindControl, Tag: core.OpCkptDone, Wave: 1})
		if len(h.Commits) != 1 || h.Commits[0] != 1 {
			t.Errorf("commits %v", h.Commits)
		}
		// Timer re-armed: a second wave initiates after another interval.
		lp.Advance(11 * time.Millisecond)
		wave2 := 0
		for _, pkt := range h.Wired {
			if pkt.Kind == mpi.KindMarker && pkt.Wave == 2 {
				wave2++
			}
		}
		if wave2 == 0 {
			t.Errorf("second wave not initiated")
		}
		p.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPclDeviceStateRoundTrip(t *testing.T) {
	k := sim.New(1)
	h := newHost(k, 1, 2)
	p := New(h, 0)
	p.enterWave(1, 0)
	if p.OutPayload(payload(1, 0)) {
		t.Fatal("send not delayed in wave")
	}
	dev := p.DeviceState()

	h2 := newHost(k, 1, 2)
	q := New(h2, 0)
	q.Restore(dev, nil, 1)
	q.Start()
	// The delayed send is re-emitted on restart (paper §3, segment 7).
	if got := countKind(h2.Wired, mpi.KindPayload); got != 1 {
		t.Fatalf("re-emitted %d delayed sends, want 1", got)
	}
	if len(h2.Ckpts) != 0 {
		t.Fatalf("restore took checkpoints %v", h2.Ckpts)
	}
}

// TestPclDevStateCodec: the device state, every field of it and of its
// packets non-zero, comes back from its encoding deep-equal, encodes to the
// same bytes before and after another type was encoded, and is as long as
// mpi.StateSize says.
func TestPclDevStateCodec(t *testing.T) {
	pkt := func(n int) *mpi.Packet {
		return &mpi.Packet{Src: n, Dst: n + 1, Kind: mpi.KindControl, Tag: n + 2, Seq: uint64(n + 3), Wave: n + 4,
			PSeq: uint64(n + 5), SpanID: uint64(n + 6), Data: []byte{byte(n), 7}, VSize: int64(n + 8)}
	}
	ds := devState{Wave: 3, Sends: []*mpi.Packet{pkt(1), pkt(20)}}
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
	mpi.AppendState(nil, &mpi.EngineImage{Unexpected: ds.Sends, CollSeq: 1})
	if !bytes.Equal(mpi.AppendState(nil, &ds), b) {
		t.Error("encodes to other bytes after another type was encoded")
	}
}

func TestPclStaleMarkerIgnored(t *testing.T) {
	k := sim.New(1)
	h := newHost(k, 1, 2)
	p := New(h, 0)
	p.Restore(nil, nil, 3) // restarted from wave 3
	p.Start()
	p.InPacket(&mpi.Packet{Src: 0, Kind: mpi.KindMarker, Wave: 2})
	if len(h.Ckpts) != 0 || len(h.Wired) != 0 {
		t.Fatal("stale marker triggered protocol activity")
	}
}

func TestPclSingleProcessWave(t *testing.T) {
	k := sim.New(1)
	h := newHost(k, 0, 1)
	p := New(h, 5*time.Millisecond)
	k.Go("driver", func(lp *sim.Proc) {
		p.Start()
		lp.Advance(6 * time.Millisecond)
		// np=1: the wave checkpoints immediately; the Done goes to self.
		if len(h.Ckpts) != 1 {
			t.Errorf("ckpts %v", h.Ckpts)
		}
		for _, pkt := range h.Wired {
			if pkt.Kind == mpi.KindControl {
				p.InPacket(pkt)
			}
		}
		if len(h.Commits) != 1 {
			t.Errorf("commits %v", h.Commits)
		}
		p.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPclDelayedRecvSurvivesLentReuse: InPacket is lent the engine's
// receive buffer, which every later arrival overwrites (mpi.Filter).  A
// payload held in the delayed receive queue must reach the matching
// engine as it arrived, though the marker that releases it came in the
// same buffer.
func TestPclDelayedRecvSurvivesLentReuse(t *testing.T) {
	k := sim.New(1)
	h := newHost(k, 1, 3)
	p := New(h, time.Second)
	h.Run(t, func() {
		p.Start()
		var lent mpi.Packet
		in := func(q mpi.Packet) bool {
			lent = q
			return p.InPacket(&lent)
		}
		in(mpi.Packet{Src: 0, Dst: 1, Kind: mpi.KindMarker, Wave: 1})
		if in(mpi.Packet{Src: 0, Dst: 1, Kind: mpi.KindPayload, Tag: 7, Data: []byte("held"), VSize: 64}) {
			t.Fatal("post-marker payload not delayed")
		}
		in(mpi.Packet{Src: 2, Dst: 1, Kind: mpi.KindMarker, Wave: 1}) // the last marker releases it
		if len(h.Ckpts) != 1 {
			t.Fatalf("ckpts %v", h.Ckpts)
		}
		got := h.Eng.Recv(0, 7)
		if string(got.Data) != "held" || got.VSize != 64 || got.Src != 0 || got.Dst != 1 {
			t.Errorf("delayed receive delivered as %+v", got)
		}
	})
}
