package sim

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSlice drives a queue and a plain slice through the same
// random pushes, pops and resets, deep enough to span several segments and
// to recycle them through the free list many times over, and compares them
// after every step.
func TestQueueMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var q Queue[int]
		var ref []int
		next := 0
		for step := 0; step < 5_000; step++ {
			switch op := r.Intn(100); {
			case op < 55 || len(ref) == 0 && op < 99:
				q.Push(next)
				ref = append(ref, next)
				next++
			case op < 99:
				if got := q.Pop(); got != ref[0] {
					t.Fatalf("seed %d step %d: popped %d, want %d", seed, step, got, ref[0])
				}
				ref = ref[1:]
			default:
				q.Reset()
				ref = ref[:0]
			}
			if q.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, q.Len(), len(ref))
			}
			if len(ref) > 0 && q.Front() != ref[0] {
				t.Fatalf("seed %d step %d: Front %d, want %d", seed, step, q.Front(), ref[0])
			}
			for i, v := range ref {
				if q.At(i) != v {
					t.Fatalf("seed %d step %d: At(%d) = %d, want %d", seed, step, i, q.At(i), v)
				}
			}
		}
	}
}

// held counts the slots of every segment the queue holds, live or free,
// that are not the zero value.
func held[T comparable](q *Queue[T]) int {
	var zero T
	n := 0
	for _, list := range []*segment[T]{q.head, q.free} {
		for s := list; s != nil; s = s.next {
			for _, v := range s.v {
				if v != zero {
					n++
				}
			}
		}
	}
	return n
}

// TestQueuePopZeroesSlot: neither Pop nor Reset leaves a released element
// reachable from a segment, including a segment Pop drained and moved to
// the free list.
func TestQueuePopZeroesSlot(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < segLen+6; i++ { // into a second segment
		q.Push(new(int))
	}
	for i := 0; i < segLen+2; i++ { // drain the first onto the free list
		q.Pop()
	}
	for i := 0; i < segLen; i++ { // fill the second, take the free one back
		q.Push(new(int))
	}
	for q.Len() > 3 {
		q.Pop()
	}
	if n := held(&q); n != 3 {
		t.Errorf("%d slots hold an element, want the 3 queued", n)
	}
	q.Reset()
	if n := held(&q); n != 0 {
		t.Errorf("%d slots still hold an element after Reset", n)
	}
	if q.Len() != 0 || q.Segments() != 2 {
		t.Errorf("after Reset: Len %d, %d segments; want 0 and the 2 it had", q.Len(), q.Segments())
	}
}

// TestQueueSteadyStateReusesStorage: a queue that hovers at a small depth
// cycles through at most two segments, however many elements pass through
// it — whether it drains between rounds or never empties at all.
func TestQueueSteadyStateReusesStorage(t *testing.T) {
	p := new(int)
	for _, c := range []struct {
		name  string
		round func(q *Queue[*int])
	}{
		{"drained", func(q *Queue[*int]) {
			for i := 0; i < 8; i++ {
				q.Push(p)
			}
			for q.Len() > 0 {
				q.Pop()
			}
		}},
		// Three to eight deep for good: the window slides through the
		// segment and across into the next.
		{"never empty", func(q *Queue[*int]) {
			for q.Len() < 8 {
				q.Push(p)
			}
			for q.Len() > 3 {
				q.Pop()
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var q Queue[*int]
			for i := 0; i < 2*segLen; i++ { // slide across segments once
				c.round(&q)
			}
			if n := testing.AllocsPerRun(10_000, func() { c.round(&q) }); n != 0 {
				t.Errorf("%v allocations per round of pushes and pops at depth <= 8", n)
			}
			if s := q.Segments(); s > 2 {
				t.Errorf("queue holds %d segments at depth <= 8, want <= 2", s)
			}
		})
	}
}

// TestQueueSecondBurstAllocatesNothing: a burst allocates its high water
// once; after a full drain, a second burst as deep reuses those segments.
func TestQueueSecondBurstAllocatesNothing(t *testing.T) {
	const n = 10*segLen + 7
	var q Queue[int]
	burst := func() {
		for i := 0; i < n; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	burst()
	if got := testing.AllocsPerRun(100, burst); got != 0 {
		t.Errorf("%v allocations per burst of %d after the first", got, n)
	}
	if s, want := q.Segments(), (n+segLen-1)/segLen; s != want {
		t.Errorf("queue holds %d segments after bursts of %d, want %d", s, n, want)
	}
}

// TestQueueAtAcrossSegments reads every position of a queue whose front
// sits mid-segment and whose elements span several segments, in order, in
// reverse and in a stride that jumps segments both ways.
func TestQueueAtAcrossSegments(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 5*segLen; i++ {
		q.Push(i)
	}
	for i := 0; i < segLen+segLen/2; i++ { // front at index 32 of its segment
		q.Pop()
	}
	first := segLen + segLen/2
	check := func(i int) {
		if got := q.At(i); got != first+i {
			t.Fatalf("At(%d) = %d, want %d", i, got, first+i)
		}
	}
	for i := 0; i < q.Len(); i++ {
		check(i)
	}
	for i := q.Len() - 1; i >= 0; i-- {
		check(i)
	}
	for i := 0; i < q.Len(); i++ {
		check((i * 37) % q.Len())
	}
	// A Pop that drains the segment At last read moves the cursor's origin.
	check(0)
	for i := 0; i < segLen/2; i++ {
		q.Pop()
	}
	first += segLen / 2
	for i := 0; i < q.Len(); i++ {
		check(i)
	}
}

// FuzzQueue drives a queue and a slice model through a program read from
// the input, one byte per operation: below 0x80 a push of up to 128
// elements, below 0xc0 a pop of up to 64, 0xff a Reset and the rest a
// read at a position chosen by the byte.  After every operation Len,
// Front and the read agree with the model and exactly the live slots of
// the queue's segments are non-zero; at the end an in-order At walk reads
// the model back.
func FuzzQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Queue[int]
		var ref []int
		next := 1 // zero marks a released slot
		for step, b := range data {
			switch {
			case b < 0x80:
				for i := 0; i <= int(b); i++ {
					q.Push(next)
					ref = append(ref, next)
					next++
				}
			case b < 0xc0:
				for i := 0; i <= int(b&0x3f) && len(ref) > 0; i++ {
					if got := q.Pop(); got != ref[0] {
						t.Fatalf("step %d: popped %d, want %d", step, got, ref[0])
					}
					ref = ref[1:]
				}
			case b == 0xff:
				q.Reset()
				ref = ref[:0]
			case len(ref) > 0:
				i := int(b&0x3f) * (len(ref) - 1) / 0x3e
				if got := q.At(i); got != ref[i] {
					t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, ref[i])
				}
			}
			if q.Len() != len(ref) {
				t.Fatalf("step %d: Len %d, want %d", step, q.Len(), len(ref))
			}
			if len(ref) > 0 && q.Front() != ref[0] {
				t.Fatalf("step %d: Front %d, want %d", step, q.Front(), ref[0])
			}
			if n := held(&q); n != len(ref) {
				t.Fatalf("step %d: %d slots hold an element, want the %d queued", step, n, len(ref))
			}
		}
		for i, v := range ref {
			if got := q.At(i); got != v {
				t.Fatalf("in-order walk: At(%d) = %d, want %d", i, got, v)
			}
		}
	})
}
