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
// Ordering.  Every At draws its seq from the kernel's counter at enqueue
// time, exactly as schedule would; AtKey appends at a key drawn earlier by
// Kernel.Reserve.  An append whose key is below the newest entry's becomes
// an ordinary event at that key, so a lane's entries are (t, seq)-ascending
// by construction.  The heap slot carries the head's key, so the heap's
// minimum is the global minimum over every pending event: the lane's
// hidden entries are all later than its head.  When the head fires the slot is
// re-keyed to the next entry and sifted down from the root, which restores
// the same invariant.  Dispatch thus follows the same (t, seq) total
// order as if every entry had been scheduled individually, and a run's
// output cannot tell the difference.

// laneEntry is one queued lane event.
type laneEntry[T any] struct {
	key Key
	v   T
}

// Lane is a monotone event FIFO bound to one callback.  Create one with
// NewLane.  Lane events cannot be cancelled.
type Lane[T any] struct {
	k    *Kernel
	fn   func(T)
	q    Queue[laneEntry[T]]
	tail Key // key of the newest entry; meaningful while q is not empty
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
	l.append(l.k.Reserve(t), v)
}

// AtKey schedules fn(v) at key, drawn earlier by Kernel.Reserve: the event
// fires exactly where one scheduled when the key was drawn would have.
// The key must not have passed.  A key below the lane's newest pending
// entry becomes an ordinary event at that key, as an out-of-order At does.
func (l *Lane[T]) AtKey(key Key, v T) {
	if l.k.Passed(key) {
		panic("sim: Lane.AtKey at a key that has passed")
	}
	l.append(key, v)
}

func (l *Lane[T]) append(key Key, v T) {
	k := l.k
	if l.q.Len() > 0 && key.before(l.tail) {
		k.scheduleKey(key, func() { l.fn(v) }, nil, nil, nil)
		return
	}
	l.q.Push(laneEntry[T]{key, v})
	l.tail = key
	if k.laned++; k.laned > k.lanedMax {
		k.lanedMax = k.laned
	}
	if l.q.Len() == 1 {
		idx := k.allocSlot()
		s := &k.slab[idx]
		s.t, s.seq, s.arg = key.t, key.seq, l
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
		s.t, s.seq = next.key.t, next.key.seq
		k.siftDown(0)
	} else {
		k.heapRemove(0)
		k.freeSlot(idx)
	}
	l.fn(e.v)
}
