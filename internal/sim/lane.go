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
// Runs.  A burst of n events that share one step in time and whose keys
// were drawn together (Kernel.ReserveRun) is one record: AtRun queues the
// run's first value and the lane expands it at its head, firing
// fn(nth(v, i)) at the run's i-th key, one event per key, before it moves
// on.  A marker flood from one rank is a few runs, not one record per
// peer.
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

// laneEntry is one queued lane record: an event, or a run's first event
// with the run's shape in the lane's runs queue.
type laneEntry[T any] struct {
	key Key
	v   T
}

// laneRun is the shape of a run queued on a lane.  at is the number of
// records pushed onto the lane before it, which tells its entry apart.
type laneRun struct {
	at        uint64
	dt        Time
	n, stride int32
}

// Lane is a monotone event FIFO bound to one callback.  Create one with
// NewLane, or NewRunLane to queue runs too.  Lane events cannot be
// cancelled.
type Lane[T any] struct {
	k   *Kernel
	fn  func(T)
	nth func(T, int) T // a run's i-th value from its first; nil on a lane without runs
	q   Queue[laneEntry[T]]
	// runs holds the shapes of the run records in q, oldest first (nil
	// until the first run); pushed counts the records ever pushed onto q,
	// and next is the index of the head run's next event.
	runs   *Queue[laneRun]
	pushed uint64
	next   int32
	tail   Key // key of the newest event; meaningful while q is not empty
}

// NewLane returns an empty lane on k whose events run fn(v).
func NewLane[T any](k *Kernel, fn func(T)) *Lane[T] {
	return &Lane[T]{k: k, fn: fn}
}

// NewRunLane returns an empty lane on k whose events run fn(v) and whose
// runs (AtRun) run fn(nth(v, i)) for their i-th event.
func NewRunLane[T any](k *Kernel, fn func(T), nth func(v T, i int) T) *Lane[T] {
	return &Lane[T]{k: k, fn: fn, nth: nth}
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

// AtRun schedules fn(nth(v, i)) at each key i of r, drawn by
// Kernel.ReserveRun, as one record: the events fire exactly where r.Len()
// events scheduled at those keys would have.  No key of r may have passed.
// A run whose first key is below the lane's newest pending entry is
// queued event by event, each as AtKey would.
func (l *Lane[T]) AtRun(r Run, v T) {
	if l.nth == nil {
		panic("sim: Lane.AtRun on a lane made without nth")
	}
	if l.k.Passed(r.first) {
		panic("sim: Lane.AtRun at a key that has passed")
	}
	if r.n == 1 || l.q.Len() > 0 && r.first.before(l.tail) {
		for i := 0; i < r.Len(); i++ {
			l.append(r.Key(i), l.nth(v, i))
		}
		return
	}
	if l.runs == nil {
		l.runs = new(Queue[laneRun])
	}
	l.runs.Push(laneRun{l.pushed, r.dt, r.n, r.stride})
	l.push(r.first, r.Last(), v)
}

func (l *Lane[T]) append(key Key, v T) {
	if l.q.Len() > 0 && key.before(l.tail) {
		l.k.scheduleKey(key, func() { l.fn(v) }, nil, nil, nil)
		return
	}
	l.push(key, key, v)
}

// push queues a record whose first event is at key and last at last.
func (l *Lane[T]) push(key, last Key, v T) {
	k := l.k
	l.q.Push(laneEntry[T]{key, v})
	l.pushed++
	l.tail = last
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
// root.  The slot is re-keyed to the lane's next event — the head run's
// next one, or the next record's first — or released when the lane
// drains, before the callback runs, so a callback that appends to its own
// lane sees a consistent lane.
func (l *Lane[T]) fire(idx int32) {
	if l.runs != nil && l.runs.Len() > 0 && l.runs.Front().at == l.pushed-uint64(l.q.Len()) {
		r := l.runs.Front()
		i := l.next
		v := l.nth(l.q.Front().v, int(i))
		if i+1 < r.n {
			k := l.k
			s := &k.slab[idx]
			l.next++
			s.t += r.dt
			s.seq += uint64(r.stride)
			k.siftDown(0)
			l.fn(v)
			return
		}
		l.next = 0
		l.runs.Pop()
		l.pop(idx)
		l.fn(v)
		return
	}
	e := l.pop(idx)
	l.fn(e.v)
}

// pop removes the head record and re-keys or releases the lane's slot.
func (l *Lane[T]) pop(idx int32) laneEntry[T] {
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
	return e
}
