package sim

import "testing"

// TestTimersHoldOneHeapSlot is the point of a timer set: however many
// timers it holds and however often they are re-armed, the kernel heap
// sees one slot — here always the root, so re-keyed in place — and no
// cancelled one, while the counters still read one cancel plus one
// schedule per re-arm.
func TestTimersHoldOneHeapSlot(t *testing.T) {
	k := New(1)
	var got []int
	s := NewTimers(k, func(r *modelTimer) { got = append(got, r.id) })
	const n, rounds = 100, 50
	recs := make([]modelTimer, n)
	for r := 0; r < rounds; r++ {
		for i := range recs {
			recs[i].id = i
			// Each round moves every timer later; timer i is due at
			// (r+1)·(n−i), so they fire in reverse.
			s.Arm(&recs[i], Time((r+1)*(n-i)))
		}
		s.Sync()
	}
	s.Stop(&recs[0])
	s.Sync()
	st := k.Stats()
	if st.HeapMax != 1 || st.Scheduled != n*rounds || st.Cancelled != n*(rounds-1)+1 {
		t.Fatalf("after %d arms of %d timers and a stop: %+v; want heap 1, %d scheduled, %d cancelled",
			rounds, n, st, n*rounds, n*(rounds-1)+1)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n-1 {
		t.Fatalf("%d timers fired, want %d", len(got), n-1)
	}
	for i, id := range got {
		if id != n-1-i {
			t.Fatalf("firing %d is timer %d, want %d", i, id, n-1-i)
		}
	}
	if st := k.Stats(); st.Fired != n-1 || len(k.heap) != 0 || s.slot != -1 {
		t.Fatalf("after the run: %+v, heap %d, slot %d", st, len(k.heap), s.slot)
	}
}

// TestTimersLeaveOneDeadSlotPerSync covers a set whose slot is not the heap
// root: a Sync that moves the set's minimum retires the slot and pushes a
// fresh one, so a batch of re-arms leaves one dead slot, not one per
// re-arm, and nothing fires out of order.
func TestTimersLeaveOneDeadSlotPerSync(t *testing.T) {
	k := New(1)
	var got []int
	k.At(0, func() { got = append(got, -1) })
	s := NewTimers(k, func(r *modelTimer) { got = append(got, r.id) })
	const n, rounds = 100, 50
	recs := make([]modelTimer, n)
	for r := 0; r < rounds; r++ {
		for i := range recs {
			recs[i].id = i
			s.Arm(&recs[i], Time((r+1)*(n-i)))
		}
		s.Sync()
	}
	if st := k.Stats(); st.HeapMax != rounds+1 || k.dead != rounds-1 || st.Cancelled != n*(rounds-1) {
		t.Fatalf("after %d synced rounds: %+v, %d dead; want heap %d, %d dead, %d cancelled",
			rounds, st, k.dead, rounds+1, rounds-1, n*(rounds-1))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n+1 || got[0] != -1 {
		t.Fatalf("fired %v", got)
	}
	for i, id := range got[1:] {
		if id != n-1-i {
			t.Fatalf("firing %d is timer %d, want %d", i+1, id, n-1-i)
		}
	}
	if len(k.heap) != 0 || k.dead != 0 || s.slot != -1 {
		t.Fatalf("after the run: heap %d, %d dead, slot %d", len(k.heap), k.dead, s.slot)
	}
}
