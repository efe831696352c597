package mpi

import (
	"testing"
	"time"

	"ftckpt/internal/sim"
)

// recordFilter timestamps marker arrivals at the filter.
type recordFilter struct {
	k  *sim.Kernel
	at *[]sim.Time
}

func (f recordFilter) OutPayload(*Packet) bool { return true }
func (f recordFilter) InPacket(p *Packet) bool {
	if p.Kind == KindMarker {
		*f.at = append(*f.at, f.k.Now())
		return false
	}
	return true
}

// TestSyncProfileDefersProtocolPackets reproduces the progress-engine
// asymmetry the protocols live with: with a synchronous profile (MPICH2),
// a marker arriving mid-computation waits for the next MPI call; with an
// asynchronous daemon (MPICH-V), it is handled on arrival.
func TestSyncProfileDefersProtocolPackets(t *testing.T) {
	run := func(async bool) sim.Time {
		k := sim.New(1)
		w := NewWorld(k, testTopo(2), Profile{Name: "p", Async: async}, 2, 1)
		var seen []sim.Time
		err := w.Run(func(e *Engine) {
			if e.Rank() == 0 {
				e.SetFilter(recordFilter{k, &seen})
				e.Compute(100 * time.Millisecond) // marker arrives in here
				e.Recv(1, 1)                      // first MPI call drains the inbox
			} else {
				e.Compute(time.Millisecond)
				e.fab.Send(1, 0, &Packet{Kind: KindMarker, Wave: 1})
				e.Compute(150 * time.Millisecond)
				e.Send(0, 1, nil, 0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 1 {
			t.Fatalf("filter saw %d markers", len(seen))
		}
		return seen[0]
	}
	syncAt := run(false)
	asyncAt := run(true)
	if asyncAt >= 10*time.Millisecond {
		t.Fatalf("async marker handled at %v, want ~arrival time", asyncAt)
	}
	if syncAt < 100*time.Millisecond {
		t.Fatalf("sync marker handled at %v, before the compute ended", syncAt)
	}
}
