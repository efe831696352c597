package sim

// Keyed timer sets.
//
// A Timers set holds timers that are re-armed far more often than they
// fire — a fluid flow's completion moves every time a flow sharing one of
// its links starts or finishes.  Scheduled as ordinary events, each re-arm
// is a Cancel plus a schedule and leaves a dead slot in the heap until it
// is popped or compacted.  A set instead keeps its timers in a min-heap of
// its own, indexed so that a re-arm moves the timer in place, and only its
// earliest timer occupies a kernel slot.
//
// Records.  A record armed in a set embeds a Timer, which holds the
// record's position in the set's heap; the zero Timer is disarmed.
//
// Ordering.  Arm draws the timer's seq from the kernel's counter exactly
// where schedule would have, so every timer has the (t, seq) key the
// equivalent event would have had.  The set's heap is (t, seq)-ordered, and
// its slot in the kernel heap carries the key of the set's minimum — not a
// copy that is earlier or later — so the kernel heap's root is the global
// minimum over every pending event, as with a Lane.  Arm and Stop only
// reorder the set; Sync then gives the slot the new minimum's key (or
// pushes or drops it), once per batch of changes, before control returns
// to the kernel.  When the slot fires, the minimum is taken off the set, its
// callback runs, and the slot is synced again.  Dispatch thus follows the
// same (t, seq) order as if every arm had been an individual event and
// every re-arm or Stop a Cancel of it.
//
// Counters.  Stats count the set as those events: an arm is one scheduled
// event, a re-arm of a pending timer one cancelled plus one scheduled, a
// Stop of a pending timer one cancelled, and a firing one fired.  Only the
// heap and slab high-water marks see the difference: a set holds one live
// slot, plus at most one dead one per Sync that moved its minimum while
// another event sat at the heap root.

// Timer is the handle a record embeds to be armed in a Timers set.
type Timer struct {
	at int32 // position in the set's heap + 1; 0 while disarmed
}

func (t *Timer) timer() *Timer { return t }

// timed is a record that embeds a Timer.
type timed interface{ timer() *Timer }

// timerEntry is one armed timer.  tm is v's Timer, kept beside it so
// that moving the entry updates its position without a call through v.
type timerEntry[T any] struct {
	t   Time
	seq uint64
	tm  *Timer
	v   T
}

// Timers is a keyed set of timers bound to one callback.  Create one with
// NewTimers.
type Timers[T timed] struct {
	k    *Kernel
	fn   func(T)
	h    []timerEntry[T] // 4-ary min-heap by (t, seq)
	slot int32           // the kernel slot carrying h[0]'s key; -1 while none
}

// NewTimers returns an empty set on k whose timers run fn(v) when they
// fire.
func NewTimers[T timed](k *Kernel, fn func(T)) *Timers[T] {
	return &Timers[T]{k: k, fn: fn, slot: -1}
}

// Arm sets v's timer to fire at virtual time t (the current time if t is
// in the past), moving it in place if it is already pending.  Call Sync
// before control returns to the kernel.
func (s *Timers[T]) Arm(v T, t Time) {
	k := s.k
	if t < k.now {
		t = k.now
	}
	tm := v.timer()
	if tm.at != 0 {
		k.cancelled++
	}
	k.seq++
	e := timerEntry[T]{t, k.seq, tm, v}
	if tm.at == 0 {
		s.h = append(s.h, e)
		s.fix(len(s.h)-1, e)
		return
	}
	s.fix(int(tm.at-1), e)
}

// Stop disarms v's timer and reports whether it was pending.  Call Sync
// before control returns to the kernel.
func (s *Timers[T]) Stop(v T) bool {
	tm := v.timer()
	if tm.at == 0 {
		return false
	}
	s.remove(int(tm.at - 1))
	s.k.cancelled++
	return true
}

// Sync gives the set's kernel slot the key of its earliest timer.  The
// kernel heap records no positions, so a slot is re-keyed in place only at
// the heap root (as a Lane's is); elsewhere the old slot is retired — left
// dead in the heap, as Cancel leaves one, but not counted — and a fresh one
// pushed.  A batch of changes thus leaves at most one dead slot behind,
// where one Cancel per re-arm would leave one per timer it moved.
func (s *Timers[T]) Sync() {
	k := s.k
	if s.slot >= 0 {
		sl := &k.slab[s.slot]
		atRoot := k.heap[0] == s.slot
		switch {
		case len(s.h) == 0 && atRoot:
			k.heapPop()
			k.freeSlot(s.slot)
		case len(s.h) == 0:
			k.retire(s.slot)
		case sl.t == s.h[0].t && sl.seq == s.h[0].seq:
			return
		case atRoot:
			sl.t, sl.seq = s.h[0].t, s.h[0].seq
			k.siftDown(0)
			return
		default:
			k.retire(s.slot)
		}
		s.slot = -1
	}
	if len(s.h) == 0 {
		return
	}
	s.slot = k.allocSlot()
	sl := &k.slab[s.slot]
	sl.t, sl.seq, sl.live, sl.owned, sl.arg = s.h[0].t, s.h[0].seq, true, true, s
	k.heapPush(s.slot)
}

// fire dispatches the set's earliest timer, whose slot sits at the heap
// root.  The slot keeps the fired key while the callback runs — every
// pending event is later, so it stays at the root — and is synced
// afterwards, in place, once for whatever the callback armed or stopped.
func (s *Timers[T]) fire(int32) {
	v := s.h[0].v
	s.remove(0)
	s.fn(v)
	s.Sync()
}

// remove takes the entry at position i out of the heap and disarms it.
func (s *Timers[T]) remove(i int) {
	s.h[i].tm.at = 0
	last := len(s.h) - 1
	e := s.h[last]
	s.h[last] = timerEntry[T]{}
	s.h = s.h[:last]
	if i < last {
		s.fix(i, e)
	}
}

func (e *timerEntry[T]) before(o *timerEntry[T]) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// fix puts e at position i, whose previous entry it replaces, and moves it
// up or down to restore the heap order, recording the position of every
// entry it moves in that entry's Timer.
func (s *Timers[T]) fix(i int, e timerEntry[T]) {
	h := s.h
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].tm.at = int32(i + 1)
		i = parent
	}
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		m := first
		for j := first + 1; j < first+4 && j < len(h); j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		h[i].tm.at = int32(i + 1)
		i = m
	}
	h[i] = e
	e.tm.at = int32(i + 1)
}
