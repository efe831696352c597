package mpi

// A blocking call parks its LP once: a send's CPU charge is an event, and a
// receive's wait for its match and its charge are one timed wake.  These
// tests pin what that must not change: when a send reaches the wire, what a
// checkpoint taken mid-charge holds, what a kill mid-charge leaves behind,
// when an FT abort lands and what mpi.recv_blocked observes.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

const ms = time.Millisecond

// TestCallParksOnce: with a send and a receive charge on every call, each
// rank's LP resumes once per Send, Recv, Sendrecv, SendrecvF64s,
// TrySendrecv and AllgatherB round (an exchange parked three times: for its
// send charge, for its match and for its receive charge).
func TestCallParksOnce(t *testing.T) {
	const p, calls = 4, 10
	prof := Profile{Name: "costs", SendOverhead: ms, RecvOverhead: ms}
	for _, tc := range []struct {
		name  string
		parks int // per rank per call
		op    func(e *Engine)
	}{
		{"send-recv", 1, func(e *Engine) {
			if e.Rank()%2 == 0 {
				e.Send(e.Rank()+1, 1, nil, 64)
			} else {
				e.Recv(e.Rank()-1, 1)
			}
		}},
		{"sendrecv", 1, func(e *Engine) {
			r := e.Rank()
			e.Sendrecv((r+1)%p, 1, nil, 64, (r+p-1)%p, 1)
		}},
		{"sendrecv-f64s", 1, func(e *Engine) {
			r := e.Rank()
			e.SendrecvF64s((r+1)%p, 1, []float64{1}, (r+p-1)%p, 1, make([]float64, 1))
		}},
		{"try-sendrecv", 1, func(e *Engine) {
			r := e.Rank()
			if _, err := e.TrySendrecv((r+1)%p, 1, []byte{1}, (r+p-1)%p, 1, nil); err != nil {
				t.Error(err)
			}
		}},
		{"allgather", p - 1, func(e *Engine) { e.AllgatherB([]byte{byte(e.Rank())}) }},
	} {
		resumes := func(n int) uint64 {
			w := NewWorld(sim.New(1), testTopo(p), prof, p, 1)
			if err := w.Run(func(e *Engine) {
				for range n {
					tc.op(e)
				}
			}); err != nil {
				t.Fatal(err)
			}
			return w.K.Stats().Resumes
		}
		if got, want := resumes(calls)-resumes(0), uint64(p*calls*tc.parks); got != want {
			t.Errorf("%s: %d LP resumes for %d calls on %d ranks, want %d", tc.name, got, calls, p, want)
		}
	}
}

// exchangeResult is what a rank of the checkpoint tests saw: the payload
// its exchange returned and the messages still queued a second later (a
// second copy of its peer's).
type exchangeResult struct {
	data  []byte
	extra int
}

func exchangeOnce(e *Engine, computeFirst bool) exchangeResult {
	peer := 1 - e.Rank()
	if computeFirst {
		e.Compute(time.Second)
	}
	p := e.Sendrecv(peer, 3, exchangeMsg(e.Rank()), 0, peer, 3)
	e.Compute(time.Second) // a repeated send arrives meanwhile
	return exchangeResult{p.Data, len(e.unexpected)}
}

func exchangeMsg(r int) []byte { return []byte{byte(r), 'c'} }

func checkExchanged(t *testing.T, want, got []exchangeResult) {
	t.Helper()
	for r := range want {
		if !bytes.Equal(want[r].data, exchangeMsg(1-r)) || !bytes.Equal(got[r].data, exchangeMsg(1-r)) {
			t.Errorf("rank %d: uninterrupted %v, restored %v, want %v", r, want[r].data, got[r].data, exchangeMsg(1-r))
		}
		if want[r].extra != 0 || got[r].extra != 0 {
			t.Errorf("rank %d holds %d and %d extra messages after the uninterrupted and restored runs, want 0",
				r, want[r].extra, got[r].extra)
		}
	}
}

// TestSendrecvCheckpointMidSendCharge: an image captured while rank 0's
// send event is pending has not sent (CollState.Sent is false, and rank 1
// holds nothing), and the restored rank 0 sends exactly once.
func TestSendrecvCheckpointMidSendCharge(t *testing.T) {
	want, got := checkpointMid(t, 2, Profile{Name: "send", SendOverhead: 100 * ms}, 50*ms,
		func(es []*Engine, imgs []*EngineImage) {
			if es[0].sendEv == 0 || es[0].park != parkPosted {
				t.Errorf("rank 0 not in its send charge at the capture: park %d", es[0].park)
			}
			if c := imgs[0].Coll; c == nil || c.Kind != CollSendrecv || c.Sent {
				t.Errorf("rank 0's image: coll %+v, want an unsent Sendrecv", c)
			}
			if u := imgs[1].Unexpected; len(u) != 0 {
				t.Errorf("rank 1 holds %d messages at the capture, want 0", len(u))
			}
		},
		func(e *Engine, restored bool) exchangeResult { return exchangeOnce(e, e.Rank() == 1 && !restored) })
	checkExchanged(t, want, got)
}

// TestSendrecvCheckpointMidRecvCharge: an image captured during rank 0's
// armed receive charge has sent and still holds the match in Unexpected,
// and the restored receive returns it without sending again.
func TestSendrecvCheckpointMidRecvCharge(t *testing.T) {
	want, got := checkpointMid(t, 2, Profile{Name: "recv", RecvOverhead: 100 * ms}, 50*ms,
		func(es []*Engine, imgs []*EngineImage) {
			if es[0].wakeEv == 0 || es[0].park != parkCharge {
				t.Errorf("rank 0 not in its receive charge at the capture: park %d", es[0].park)
			}
			if c := imgs[0].Coll; c == nil || c.Kind != CollSendrecv || !c.Sent {
				t.Errorf("rank 0's image: coll %+v, want a sent Sendrecv", c)
			}
			if u := imgs[0].Unexpected; len(u) != 1 || !bytes.Equal(u[0].Data, exchangeMsg(1)) {
				t.Errorf("rank 0's image holds %d messages, want rank 1's", len(u))
			}
		},
		func(e *Engine, restored bool) exchangeResult { return exchangeOnce(e, false) })
	checkExchanged(t, want, got)
}

// TestKillMidCharge: a process torn down in the middle of a charge (Close,
// then Kill, as a teardown does) or only killed (unwound while parked)
// leaves nothing behind: a send whose charge had not ended puts no packet
// on the wire, the pending event is cancelled at once, and nothing of the
// dead incarnation fires later.
func TestKillMidCharge(t *testing.T) {
	for _, tc := range []struct {
		name     string
		prof     Profile
		msgs     int64 // packets on the wire: rank 1's and, after its send charge, rank 0's
		teardown bool
	}{
		{"send-teardown", Profile{Name: "send", SendOverhead: 10 * ms}, 0, true},
		{"send-kill", Profile{Name: "send", SendOverhead: 10 * ms}, 0, false},
		{"recv-teardown", Profile{Name: "recv", RecvOverhead: 10 * ms}, 2, true},
		{"recv-kill", Profile{Name: "recv", RecvOverhead: 10 * ms}, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := obs.NewMetrics()
			w := NewWorld(sim.New(1), testTopo(2), tc.prof, 2, 1)
			w.Fab.SetMetrics(m)
			var before, killed, later sim.Stats
			w.K.At(4*ms, func() { before = w.K.Stats() })
			w.K.At(5*ms, func() {
				e := w.Engines[0]
				if e.sendEv == 0 && e.wakeEv == 0 {
					t.Errorf("rank 0 not in a charge at the kill: park %d", e.park)
				}
				if tc.teardown {
					e.Close()
					if e.sendEv != 0 || e.wakeEv != 0 {
						t.Error("Close left a charge pending")
					}
				}
				w.K.Kill(e.lp, nil)
			})
			w.K.At(6*ms, func() { killed = w.K.Stats() })
			w.K.At(time.Second, func() { later = w.K.Stats() })
			err := w.Run(func(e *Engine) {
				if e.Rank() == 1 {
					if tc.msgs > 0 {
						e.Send(0, 3, []byte{1}, 0)
					}
					return
				}
				e.Sendrecv(1, 3, []byte{0}, 0, 1, 3)
				t.Error("rank 0's exchange returned despite the kill")
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Counter(obs.MFabricMsgs); got != tc.msgs {
				t.Errorf("%d packets on the wire, want %d", got, tc.msgs)
			}
			if got := killed.Cancelled - before.Cancelled; got != 1 {
				t.Errorf("%d events cancelled by the kill, want the one charge", got)
			}
			if got := later.Fired - killed.Fired; got != 1 {
				t.Errorf("%d events fired after the kill, want 1 (the probe's own)", got)
			}
		})
	}
}

// TestFTAbortInstants: a revocation or a peer failure ends rank 0's
// exchange at the instant it did while the exchange parked for each
// charge.  One during the send charge aborts at the end of the charge,
// after the packet went out; one during the receive charge lets the
// receive complete; one while the receive waits for its match aborts at
// once.
func TestFTAbortInstants(t *testing.T) {
	revoke := func(e *Engine) { e.Revoke() }
	fail := func(e *Engine) { e.NotifyFailed(1) }
	sendCharge := Profile{Name: "send", SendOverhead: 10 * ms}
	recvCharge := Profile{Name: "recv", RecvOverhead: 10 * ms}
	type outcome struct {
		at   sim.Time
		out  []byte
		err  error
		msgs int64
	}
	run := func(prof Profile, peerSends bool, hit func(*Engine)) outcome {
		var o outcome
		m := obs.NewMetrics()
		w := NewWorld(sim.New(1), testTopo(2), prof, 2, 1)
		w.Fab.SetMetrics(m)
		if hit != nil {
			w.K.At(5*ms, func() { hit(w.Engines[0]) })
		}
		err := w.Run(func(e *Engine) {
			e.EnableFT()
			if e.Rank() == 1 {
				if peerSends {
					e.Send(0, 3, []byte{1}, 0)
				}
				return
			}
			o.out, o.err = e.TrySendrecv(1, 3, []byte{0}, 1, 3, nil)
			o.at = e.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		o.msgs = m.Counter(obs.MFabricMsgs)
		return o
	}
	for _, tc := range []struct {
		name      string
		prof      Profile
		peerSends bool
		hit       func(*Engine)
		err       error    // nil: the exchange completes as it does unhit
		at        sim.Time // when an aborted exchange returns
	}{
		{"revoke-in-send-charge", sendCharge, false, revoke, ErrRevoked, 10 * ms},
		{"failure-in-send-charge", sendCharge, false, fail, ErrProcFailed, 10 * ms},
		{"revoke-in-recv-charge", recvCharge, true, revoke, nil, 0},
		{"failure-in-recv-charge", recvCharge, true, fail, nil, 0},
		{"revoke-awaiting-match", Profile{Name: "free"}, false, revoke, ErrRevoked, 5 * ms},
		{"failure-awaiting-match", Profile{Name: "free"}, false, fail, ErrProcFailed, 5 * ms},
	} {
		got := run(tc.prof, tc.peerSends, tc.hit)
		if tc.err == nil {
			want := run(tc.prof, tc.peerSends, nil)
			if want.at <= 5*ms || got.at != want.at || got.err != nil || !bytes.Equal(got.out, []byte{1}) {
				t.Errorf("%s: returned %q, %v at %v; want %q, nil at %v as unhit (after the hit)",
					tc.name, got.out, got.err, got.at, []byte{1}, want.at)
			}
			continue
		}
		if !errors.Is(got.err, tc.err) || got.at != tc.at || got.msgs != 1 {
			t.Errorf("%s: returned %v at %v with %d packets sent; want %v at %v after rank 0's packet",
				tc.name, got.err, got.at, got.msgs, tc.err, tc.at)
		}
	}
}

// TestRecvBlockedObservations: mpi.recv_blocked observes a receive's wait
// from the end of its send charge to its match's arrival, split where a
// failure of an unrelated peer wakes the waiter, and nothing for a match
// already queued.  Rank 0 sends at 1 ms, is woken by rank 2's failure at
// 3 ms and receives rank 1's packet, sent at 6 ms, a receive charge before
// its exchange returns; rank 1 finds rank 0's packet queued.
func TestRecvBlockedObservations(t *testing.T) {
	m := obs.NewMetrics()
	w := NewWorld(sim.New(1), testTopo(3), Profile{Name: "costs", SendOverhead: ms, RecvOverhead: ms}, 3, 1)
	w.K.At(3*ms, func() { w.Engines[0].NotifyFailed(2) })
	var done sim.Time
	err := w.Run(func(e *Engine) {
		e.SetMetrics(m)
		e.EnableFT()
		switch e.Rank() {
		case 0:
			e.Sendrecv(1, 1, nil, 8, 1, 1)
			done = e.Now()
		case 1:
			e.Compute(5 * ms)
			e.Sendrecv(0, 1, nil, 8, 0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	h := m.Hist("mpi.recv_blocked")
	arrival := done - ms
	if h == nil || h.Count != 2 || h.Min != 2*ms || h.Sum != arrival-ms {
		t.Fatalf("recv_blocked %s; want 2 observations, 2ms and %v", fmt.Sprint(h), arrival-3*ms)
	}
}
