package sim

// Queue is a FIFO ring: the one queue the simulator uses, from the
// kernel's run queue and a lane's pending entries to a channel's backlog
// and a protocol's unacknowledged sends.  The zero value is an empty queue.
//
// The ring's length is zero or a power of two, so positions wrap with a
// mask; it doubles when full and never shrinks, so a queue that hovers at
// a small depth cycles through one array however many elements pass
// through it.  Pop and Reset zero the slots they release: a popped element
// is not kept reachable by the array.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns the number of slots the ring holds before it grows.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 1
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.At(i)
	}
	q.buf, q.head = buf, 0
}

// Front returns the oldest element of a non-empty queue.
func (q *Queue[T]) Front() T { return q.buf[q.head] }

// At returns the i-th oldest element, 0 <= i < Len: the queue in order is
// At(0), ..., At(Len()-1).
func (q *Queue[T]) At(i int) T { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// Pop removes and returns the oldest element of a non-empty queue.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Reset empties the queue, keeping its storage.
func (q *Queue[T]) Reset() {
	clear(q.buf)
	q.head, q.n = 0, 0
}
