package sim

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSlice drives a queue and a plain slice through the same
// random pushes, pops and resets, long enough to wrap the ring and grow it
// many times over, and compares them after every step.
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

// TestQueuePopZeroesSlot: neither Pop nor Reset leaves a released element
// reachable from the ring.
func TestQueuePopZeroesSlot(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 6; i++ {
		q.Push(new(int))
	}
	q.Pop()
	q.Pop()
	for i := 0; i < 4; i++ { // wrap around the ring's end
		q.Push(new(int))
	}
	for q.Len() > 3 {
		q.Pop()
	}
	held := 0
	for _, v := range q.buf {
		if v != nil {
			held++
		}
	}
	if held != 3 {
		t.Errorf("%d slots hold an element, want the 3 queued", held)
	}
	q.Reset()
	for i, v := range q.buf {
		if v != nil {
			t.Errorf("slot %d still holds an element after Reset", i)
		}
	}
}

// TestQueueSteadyStateReusesStorage: a queue that hovers at a small depth
// cycles through one small array, however many elements pass through.
func TestQueueSteadyStateReusesStorage(t *testing.T) {
	var q Queue[*int]
	p := new(int)
	round := func() {
		for i := 0; i < 4; i++ {
			q.Push(p)
		}
		q.Pop() // move the window along the ring once per round
		q.Push(p)
		for q.Len() > 0 {
			q.Pop()
		}
	}
	round()
	if n := testing.AllocsPerRun(10_000, round); n != 0 {
		t.Errorf("%v allocations per round of pushes and pops at depth <= 5", n)
	}
	if c := q.Cap(); c > 8 {
		t.Errorf("queue grew to %d slots at depth <= 5", c)
	}
}
