package sim

import "testing"

// TestLaneHoldsOneHeapSlot is the point of a lane: a monotone burst costs
// the heap one entry however long it is, and an out-of-order append still
// fires in (t, seq) order, as an ordinary event.
func TestLaneHoldsOneHeapSlot(t *testing.T) {
	k := New(1)
	var got []int
	l := NewLane(k, func(v int) { got = append(got, v) })
	const n = 1000
	for i := 0; i < n; i++ {
		l.At(Time(i/10), i) // ten-way ties: seq decides
	}
	if st := k.Stats(); st.HeapMax != 1 || st.LaneMax != n {
		t.Fatalf("after %d monotone appends: heap high-water %d, lane high-water %d; want 1 and %d", n, st.HeapMax, st.LaneMax, n)
	}
	l.At(5, n) // earlier than the tail: falls through to the heap
	if st := k.Stats(); st.HeapMax != 2 || st.LaneMax != n {
		t.Fatalf("after an out-of-order append: heap high-water %d, lane high-water %d; want 2 and %d", st.HeapMax, st.LaneMax, n)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Entry n was scheduled last at t=5, so it fires after 50..59.
	for i, v := range got {
		want := i
		switch {
		case i == 60:
			want = n
		case i > 60:
			want = i - 1
		}
		if v != want {
			t.Fatalf("dispatch %d is event %d, want %d", i, v, want)
		}
	}
	if len(got) != n+1 {
		t.Fatalf("%d events fired, want %d", len(got), n+1)
	}
}
