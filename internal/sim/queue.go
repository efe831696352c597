package sim

// segLen is the number of entries in one queue segment: a power of two, so
// At splits a position into a segment hop and an index with a shift and a
// mask.
const segLen = 64

// segment is one fixed-size block of a Queue, linked to the next newer one.
type segment[T any] struct {
	v    [segLen]T
	next *segment[T]
}

// Queue is a FIFO of linked fixed-size segments: the one queue the
// simulator uses, from the kernel's run queue and a lane's pending entries
// to a channel's backlog and a protocol's unacknowledged sends.  The zero
// value is an empty queue.
//
// Push fills the newest segment and links another when it is full; Pop
// empties the oldest and, once it is drained, moves it to the queue's own
// free list, where the next Push that needs a segment takes it back.  A
// queue therefore never copies an element to grow, a burst allocates its
// high water once and a second burst as deep allocates nothing, and a
// queue that hovers at a small depth cycles through at most two segments
// however many elements pass through it.  Segments are never released to
// the collector.  Pop and Reset zero the slots they release: a popped
// element is not kept reachable by the queue.
type Queue[T any] struct {
	head, tail *segment[T] // oldest and newest live segment, nil when none
	free       *segment[T] // drained segments, linked through next
	hi, ti     int         // Front's index in head; the next free index in tail
	n          int
	// cur is the segment At last read, curSeg its distance from head: an
	// in-order walk with At resumes there instead of hopping from head.
	// nil when unset.
	cur    *segment[T]
	curSeg int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Segments returns the number of segments the queue holds, live and free:
// its storage is Segments() blocks of 64 entries.
func (q *Queue[T]) Segments() int {
	n := 0
	for s := q.head; s != nil; s = s.next {
		n++
	}
	for s := q.free; s != nil; s = s.next {
		n++
	}
	return n
}

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	if q.tail == nil || q.ti == segLen {
		s := q.free
		if s != nil {
			q.free, s.next = s.next, nil
		} else {
			s = new(segment[T])
		}
		if q.tail == nil {
			q.head, q.hi = s, 0
		} else {
			q.tail.next = s
		}
		q.tail, q.ti = s, 0
	}
	q.tail.v[q.ti] = v
	q.ti++
	q.n++
}

// Front returns the oldest element of a non-empty queue.
func (q *Queue[T]) Front() T { return q.head.v[q.hi] }

// At returns the i-th oldest element, 0 <= i < Len: the queue in order is
// At(0), ..., At(Len()-1), a walk that hops each segment once.
func (q *Queue[T]) At(i int) T {
	off := q.hi + i
	seg := off / segLen
	if q.cur == nil || q.curSeg > seg {
		q.cur, q.curSeg = q.head, 0
	}
	for q.curSeg < seg {
		q.cur = q.cur.next
		q.curSeg++
	}
	return q.cur.v[off%segLen]
}

// Pop removes and returns the oldest element of a non-empty queue.
func (q *Queue[T]) Pop() T {
	s := q.head
	v := s.v[q.hi]
	var zero T
	s.v[q.hi] = zero
	q.hi++
	q.n--
	switch {
	case q.n == 0:
		// Empty: rewind in place, so a queue that drains between bursts
		// keeps reusing its one segment.
		q.hi, q.ti = 0, 0
	case q.hi == segLen:
		// The oldest segment is drained and the next one holds the rest.
		q.head, q.hi = s.next, 0
		s.next, q.free = q.free, s
		q.cur = nil
	}
	return v
}

// Reset empties the queue, keeping its storage on the free list.
func (q *Queue[T]) Reset() {
	for s := q.head; s != nil; {
		next := s.next
		clear(s.v[:])
		s.next, q.free = q.free, s
		s = next
	}
	q.head, q.tail, q.cur = nil, nil, nil
	q.hi, q.ti, q.n = 0, 0, 0
}
