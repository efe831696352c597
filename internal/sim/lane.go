package sim

// Head-of-line event lanes.
//
// A lane is a FIFO of events that share one callback and whose times never
// decrease — a NIC's transmit horizon, a daemon's service queue.  Only the
// lane's head occupies a slot in the event heap; the rest wait in the
// lane's queue.  A burst of n events on one lane therefore costs the heap
// one entry, not n, which is what keeps a Pcl marker flood (NP² small
// messages serialised on NP/ppn NICs) from making the heap NP² deep.
//
// Records.  A Lane[T] stores each entry's record by value in its queue
// slot, so the record needs no allocation and no free list of its own: it
// lives from At until its callback is called, and a callback that keeps
// it keeps a copy.
//
// Ordering.  Every append draws its seq from the kernel's counter at
// enqueue time, exactly as schedule would, and a lane's entries are
// (t, seq)-ascending by construction (t never decreases, seq always
// increases).  The heap slot carries the head's key, so the heap's minimum
// is the global minimum over every pending event: the lane's hidden
// entries are all later than its head.  When the head fires the slot is
// re-keyed to the next entry and sifted down from the root, which restores
// the same invariant.  Dispatch thus follows the same (t, seq) total
// order as if every entry had been scheduled individually, and a run's
// output cannot tell the difference.

// laneEntry is one queued lane event.
type laneEntry[T any] struct {
	t   Time
	seq uint64
	v   T
}

// Lane is a monotone event FIFO bound to one callback.  Create one with
// NewLane.  Lane events cannot be cancelled.
type Lane[T any] struct {
	k    *Kernel
	fn   func(T)
	q    Queue[laneEntry[T]]
	tail Time // time of the newest entry; meaningful while q is not empty
}

// NewLane returns an empty lane on k whose events run fn(v).
func NewLane[T any](k *Kernel, fn func(T)) *Lane[T] {
	return &Lane[T]{k: k, fn: fn}
}

// At schedules fn(v) at virtual time t, like Kernel.AtArg.  An append
// earlier than the lane's newest pending entry becomes an ordinary event:
// the lane is an optimisation for the monotone case, never a constraint on
// the caller.
func (l *Lane[T]) At(t Time, v T) {
	k := l.k
	if t < k.now {
		t = k.now
	}
	if l.q.Len() > 0 && t < l.tail {
		k.schedule(t, func() { l.fn(v) }, nil, nil, nil)
		return
	}
	k.seq++
	l.q.Push(laneEntry[T]{t, k.seq, v})
	l.tail = t
	if k.laned++; k.laned > k.lanedMax {
		k.lanedMax = k.laned
	}
	if l.q.Len() == 1 {
		idx := k.allocSlot()
		s := &k.slab[idx]
		s.t, s.seq, s.live, s.owned = t, k.seq, true, true
		s.arg = l
		k.heapPush(idx)
	}
}

// fire dispatches the head of the lane whose slot idx sits at the heap
// root.  The slot is re-keyed to the lane's next entry, or released when
// the lane drains, before the callback runs — so a callback that appends
// to its own lane sees a consistent lane.
func (l *Lane[T]) fire(idx int32) {
	k := l.k
	e := l.q.Pop()
	k.laned--
	if l.q.Len() > 0 {
		next := l.q.Front()
		s := &k.slab[idx]
		s.t, s.seq = next.t, next.seq
		k.siftDown(0)
	} else {
		k.heapPop()
		k.freeSlot(idx)
	}
	l.fn(e.v)
}
