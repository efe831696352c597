package vcl

import (
	"testing"
	"time"

	"ftckpt/internal/core"
	"ftckpt/internal/core/coretest"
	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

func acks(pkts []*mpi.Packet) int {
	n := 0
	for _, p := range pkts {
		if p.Kind == mpi.KindControl && p.Tag == core.OpCkptDone && p.Dst == mpi.SchedulerID {
			n++
		}
	}
	return n
}

func payload(src, dst, tag int) *mpi.Packet {
	return &mpi.Packet{Src: src, Dst: dst, Kind: mpi.KindPayload, Tag: tag, Data: []byte{byte(tag)}}
}

// TestVclLoggingWindow checks the Chandy–Lamport channel-state rule: a
// payload is logged exactly when it arrives after the local snapshot and
// before the sender's marker — and is still delivered either way.
func TestVclLoggingWindow(t *testing.T) {
	k := sim.New(1)
	h := coretest.New(k, 1, 3)
	v := New(h)
	logged := func() int { return h.Col.Count(obs.EvMessageLogged) }
	h.Run(t, func() {
		v.Start()
		// Pre-wave payload: delivered, not logged.
		if !v.InPacket(payload(0, 1, 10)) {
			t.Fatal("pre-wave payload consumed")
		}
		if logged() != 0 {
			t.Fatal("pre-wave payload logged")
		}

		// Scheduler marker: snapshot immediately, markers flooded,
		// computation not interrupted.
		v.InPacket(&mpi.Packet{Src: mpi.SchedulerID, Kind: mpi.KindMarker, Wave: 1})
		if len(h.Ckpts) != 1 || h.Ckpts[0] != 1 {
			t.Fatalf("ckpts %v", h.Ckpts)
		}
		markers := 0
		for _, p := range h.Wired {
			if p.Kind == mpi.KindMarker {
				markers++
			}
		}
		if markers != 2 {
			t.Fatalf("flooded %d markers, want 2", markers)
		}
		if !v.OutPayload(payload(1, 0, 11)) {
			t.Fatal("non-blocking protocol delayed a send")
		}

		// In-transit message from 0 (no marker from 0 yet): logged AND delivered.
		if !v.InPacket(payload(0, 1, 12)) {
			t.Fatal("in-transit payload withheld")
		}
		if logged() != 1 {
			t.Fatalf("logged %d messages", logged())
		}

		// Marker from 0 closes channel 0; later payloads are not logged.
		v.InPacket(&mpi.Packet{Src: 0, Kind: mpi.KindMarker, Wave: 1})
		v.InPacket(payload(0, 1, 13))
		if logged() != 1 {
			t.Fatal("post-marker payload logged")
		}
		// Channel 2 still open: its payloads are logged.
		v.InPacket(payload(2, 1, 14))
		if logged() != 2 {
			t.Fatal("open-channel payload not logged")
		}

		// Last marker: logs ship; ack waits for both transfers.
		v.InPacket(&mpi.Packet{Src: 2, Kind: mpi.KindMarker, Wave: 1})
		if len(h.LogWaves) != 1 || len(h.Logged[0]) != 2 {
			t.Fatalf("logs shipped: %v (%d pkts)", h.LogWaves, len(h.Logged[0]))
		}
		if acks(h.Wired) != 0 {
			t.Fatal("acked before transfers stored")
		}
		h.OnImg[0]()
		if acks(h.Wired) != 0 {
			t.Fatal("acked before logs stored")
		}
		h.OnLog[0]()
		if acks(h.Wired) != 1 {
			t.Fatalf("acks = %d, want 1", acks(h.Wired))
		}
		if len(h.Ckpts) != 1 {
			t.Fatalf("ckpts %v after the wave closed", h.Ckpts)
		}
	})
}

// TestVclPeerMarkerTriggersWave: the wave can reach a process via a peer
// marker before the scheduler's own marker arrives.
func TestVclPeerMarkerTriggersWave(t *testing.T) {
	k := sim.New(1)
	h := coretest.New(k, 0, 2)
	v := New(h)
	h.Run(t, func() {
		v.Start()
		v.InPacket(&mpi.Packet{Src: 1, Kind: mpi.KindMarker, Wave: 1})
		if len(h.Ckpts) != 1 {
			t.Fatalf("ckpts %v", h.Ckpts)
		}
		// Peer marker counted: np=2 needs exactly that one marker, so the
		// (empty) logs ship immediately.
		if len(h.LogWaves) != 1 {
			t.Fatalf("logs not shipped: %v", h.LogWaves)
		}
		// The scheduler's own marker afterwards is a no-op.
		v.InPacket(&mpi.Packet{Src: mpi.SchedulerID, Kind: mpi.KindMarker, Wave: 1})
		if len(h.Ckpts) != 1 {
			t.Fatal("scheduler marker re-triggered the wave")
		}
	})
}

// TestVclRestoreReplaysLogs: restored channel state is delivered into the
// fresh engine before any new traffic.
func TestVclRestoreReplaysLogs(t *testing.T) {
	k := sim.New(1)
	h := coretest.New(k, 1, 2)
	v := New(h)
	h.Run(t, func() {
		logs := []*mpi.Packet{
			payload(0, 1, 21),
			payload(0, 1, 22),
		}
		v.Restore(nil, logs, 5)
		// The replayed messages are in the engine, in order.
		p1 := h.Eng.Recv(0, 21)
		p2 := h.Eng.Recv(0, 22)
		if p1.Data[0] != 21 || p2.Data[0] != 22 {
			t.Fatalf("replayed %v %v", p1, p2)
		}
		// Wave numbering resumes after the restored wave.
		v.InPacket(&mpi.Packet{Src: mpi.SchedulerID, Kind: mpi.KindMarker, Wave: 5})
		if len(h.Ckpts) != 0 {
			t.Fatal("stale wave accepted after restore")
		}
		v.InPacket(&mpi.Packet{Src: mpi.SchedulerID, Kind: mpi.KindMarker, Wave: 6})
		if len(h.Ckpts) != 1 || h.Ckpts[0] != 6 {
			t.Fatalf("ckpts %v", h.Ckpts)
		}
	})
}

// TestSchedulerCommitCycle drives the scheduler through two waves.
func TestSchedulerCommitCycle(t *testing.T) {
	k := sim.New(1)
	net := simnet.New(k, simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "t", Nodes: 3, NICBW: 1e9, Latency: time.Microsecond,
	}}})
	fab := mpi.NewFabric(net)
	var markers []*mpi.Packet
	for r := 0; r < 2; r++ {
		r := r
		fab.Place(r, r)
		fab.Bind(r, func(p *mpi.Packet) {
			if p.Kind == mpi.KindMarker {
				// The handler is lent an inline marker: keep a copy.
				markers = append(markers, p.Clone())
				// Ack immediately.
				done := core.Done(p.Wave)
				fab.Send(r, mpi.SchedulerID, &done)
			}
		})
	}
	s := NewScheduler(k, fab, 2, 2, 10*time.Millisecond)
	var commits []int
	s.OnCommit = func(w int) {
		commits = append(commits, w)
		if len(commits) == 2 {
			s.Stop()
			k.Stop(nil)
		}
	}
	// The clock never exits: OnCommit's k.Stop ends the run while it is
	// parked.
	k.Go("clock", func(p *sim.Proc) {
		s.Start(0)
		for {
			p.Advance(time.Hour)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(commits) != 2 || commits[0] != 1 || commits[1] != 2 {
		t.Fatalf("commits %v", commits)
	}
	if len(markers) != 4 {
		t.Fatalf("markers %d, want 4 (2 waves × 2 ranks)", len(markers))
	}
}

// TestVclLogSurvivesLentReuse: InPacket is lent the engine's receive
// buffer, which every later arrival overwrites (mpi.Filter).  The channel
// log must ship the in-transit payloads as they arrived.
func TestVclLogSurvivesLentReuse(t *testing.T) {
	k := sim.New(1)
	h := coretest.New(k, 1, 2)
	v := New(h)
	h.Run(t, func() {
		v.Start()
		var lent mpi.Packet
		in := func(q *mpi.Packet) bool {
			lent = *q
			return v.InPacket(&lent)
		}
		in(&mpi.Packet{Src: mpi.SchedulerID, Kind: mpi.KindMarker, Wave: 1})
		in(payload(0, 1, 12))
		in(payload(0, 1, 13))
		in(&mpi.Packet{Src: 0, Kind: mpi.KindMarker, Wave: 1}) // closes the channel: the logs ship
		if len(h.Logged) != 1 || len(h.Logged[0]) != 2 {
			t.Fatalf("logs shipped: %v", h.Logged)
		}
		for i, p := range h.Logged[0] {
			if want := 12 + i; p.Kind != mpi.KindPayload || p.Tag != want || p.Src != 0 || len(p.Data) != 1 || int(p.Data[0]) != want {
				t.Errorf("log entry %d is %+v, want the payload with tag %d", i, *p, want)
			}
		}
	})
}
