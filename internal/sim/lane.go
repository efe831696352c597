package sim

// Head-of-line event lanes.
//
// A lane is a FIFO of events that share one callback and whose times never
// decrease — a NIC's transmit horizon, a daemon's service queue.  Only the
// lane's head occupies a slot in the event heap; the rest wait in the
// lane's ring.  A burst of n events on one lane therefore costs the heap
// one entry, not n, which is what keeps a Pcl marker flood (NP² small
// messages serialised on NP/ppn NICs) from making the heap NP² deep.
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
type laneEntry struct {
	t   Time
	seq uint64
	arg any
}

// Lane is a monotone event FIFO bound to one callback.  Create one with
// Kernel.NewLane.  Lane events cannot be cancelled.
type Lane struct {
	k  *Kernel
	fn func(any)
	// ring holds the pending entries, head first; its length is a power
	// of two so positions wrap with a mask.
	ring []laneEntry
	head int
	n    int
	tail Time // time of the newest entry; meaningful while n > 0
}

// NewLane returns an empty lane whose events run fn(arg).
func (k *Kernel) NewLane(fn func(any)) *Lane {
	return &Lane{k: k, fn: fn}
}

// At schedules fn(arg) at virtual time t, like Kernel.AtArg.  An append
// earlier than the lane's newest pending entry becomes an ordinary event:
// the lane is an optimisation for the monotone case, never a constraint on
// the caller.
func (l *Lane) At(t Time, arg any) {
	k := l.k
	if t < k.now {
		t = k.now
	}
	if l.n > 0 && t < l.tail {
		k.schedule(t, nil, l.fn, arg, nil)
		return
	}
	k.seq++
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneEntry{t, k.seq, arg}
	l.n++
	l.tail = t
	if k.laned++; k.laned > k.lanedMax {
		k.lanedMax = k.laned
	}
	if l.n == 1 {
		idx := k.allocSlot()
		s := &k.slab[idx]
		s.t, s.seq, s.live, s.lane = t, k.seq, true, true
		s.arg = l
		k.heapPush(idx)
	}
}

func (l *Lane) grow() {
	size := 2 * len(l.ring)
	if size == 0 {
		size = 8
	}
	ring := make([]laneEntry, size)
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// pop removes and returns the head entry.
func (l *Lane) pop() laneEntry {
	e := l.ring[l.head]
	l.ring[l.head] = laneEntry{} // drop the payload reference
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	l.k.laned--
	return e
}

// fireLane dispatches the head of the lane whose slot idx sits at the heap
// root.  The slot is re-keyed to the lane's next entry, or released when
// the lane drains, before the callback runs — so a callback that appends
// to its own lane sees a consistent lane.
func (k *Kernel) fireLane(idx int32) {
	s := &k.slab[idx]
	l := s.arg.(*Lane)
	e := l.pop()
	if l.n > 0 {
		next := &l.ring[l.head]
		s.t, s.seq = next.t, next.seq
		k.siftDown(0)
	} else {
		k.heapPop()
		k.freeSlot(idx)
	}
	l.fn(e.arg)
}
