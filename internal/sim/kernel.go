//go:build go1.23

// Package sim provides a deterministic discrete-event simulation kernel.
//
// A simulation is a set of logical processes (LPs) — coroutines created
// with Kernel.Go — plus a queue of timed event callbacks.  The kernel runs
// exactly one thing at a time: either a single LP (until it parks on a
// timer or a Cond) or a single event callback.  Events with equal
// timestamps fire in scheduling order, and woken LPs run in wake order, so
// a simulation is bit-reproducible: the same program produces the same
// trace on every run.
//
// An LP is a standard-library coroutine (iter.Pull, hence the go1.23 build
// line): the kernel resumes it and gets control back when it parks — one
// switch in, one out, with no trip through the Go scheduler and nothing
// running concurrently.  A Kill, or the end of Run, unwinds a parked LP
// from the kernel call it is parked in, running its deferred functions.
//
// Virtual time is a time.Duration measured from the start of the
// simulation.  It only advances when every LP is parked and the earliest
// pending event is popped; an LP that never parks therefore freezes time
// (and eventually the kernel reports it as a livelock through the caller
// hanging — don't do that).  LPs model the passage of computation time
// explicitly with Proc.Advance.
//
// The event queue is built for the hot path: an indexed 4-ary min-heap
// over a pooled slot slab.  Scheduling reuses slots through a free list
// (no per-At allocation in steady state), EventIDs carry a generation
// counter so a stale one cannot cancel a later event (Cancel unlinks the
// slot from the heap at once), and timers that only wake an LP (Advance)
// carry the *Proc directly instead of a closure.  Bursts of events that
// share a callback and never go back in time (a NIC's transmit horizon)
// queue in a Lane, which keeps only its head in the heap (lane.go).
// An event that is usually not needed need not be scheduled at all:
// Reserve draws the key it would have, Passed tells whether it would have
// fired yet, and Lane.AtKey schedules it at that key only once it turns
// out to be needed.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Time is a virtual timestamp: the duration elapsed since the start of the
// simulation.  It is an alias so that arithmetic with time.Duration
// constants (sim.Time(30*time.Second), t + 5*time.Millisecond) is direct.
type Time = time.Duration

// procState tracks where an LP is in its lifecycle.
type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateParked
	stateDead
)

// Proc is a logical process: a coroutine whose execution interleaves with
// the rest of the simulation only at kernel calls (Advance, Cond.Wait,
// Yield).  All Proc methods must be called by the LP itself while it is
// the one running, i.e. from inside the function passed to Kernel.Go.
type Proc struct {
	k      *Kernel
	id     int
	name   string
	state  procState
	killed error // poison: delivered at the next kernel call

	// The coroutine's two ends (iter.Pull): the kernel calls next to run
	// the LP until it parks or exits and stop to unwind it; the LP calls
	// yield to park, and a false return means stop was called.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// ID returns the process identifier assigned by the kernel (dense,
// starting at 0, in spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the diagnostic name given at spawn time.
func (p *Proc) Name() string { return p.name }

// eventSlot is one pooled event.  A slot is referenced by at most one
// heap entry and knows its place in the heap, so Cancel unlinks it at once
// and recycles it through the free list.
//
// Lifetime rule (its declarations are checked by the pooled-holder rule
// of lint_test.go at the repo root): a *eventSlot obtained from the slab
// is only valid until the slot is freed — the generation counter advances
// and the same storage is handed to the next schedule call.  Never store
// a slot pointer in a field or global; hold the EventID instead, which
// detects recycling.
type eventSlot struct {
	t   Time
	seq uint64
	gen uint32
	pos int32 // index in the heap; -1 while the slot is free or firing
	// Exactly one of the payload forms is set: fn (closure callback),
	// argFn+arg (closure-free callback), proc (wake the LP), or arg alone
	// (owned).
	fn    func()
	argFn func(any)
	arg   any
	proc  *Proc
}

// owned reports whether s is the one slot a Lane keeps in the heap: arg
// holds the lane (a slotOwner), which re-keys the slot rather than freeing
// it while it has more entries.
func (s *eventSlot) owned() bool { return s.fn == nil && s.argFn == nil && s.proc == nil }

// slotOwner is what the kernel sees of a Lane: firing its slot, which sits
// at the heap root, dispatches the lane's head.
type slotOwner interface{ fire(idx int32) }

// Kernel is a discrete-event scheduler.  Create one with New, add LPs with
// Go and events with At/After, then call Run.
type Kernel struct {
	now  Time
	seq  uint64
	slab []eventSlot
	free []int32 // recycled slot indices (LIFO)
	heap []int32 // 4-ary min-heap of slot indices, keyed by (t, seq)

	// cur is the seq of the event being dispatched, or of the last one
	// while an LP runs: with now, the key Passed compares against.
	cur uint64

	// Counters behind Stats.  seq doubles as the scheduled count.
	fired     uint64
	cancelled uint64
	resumes   uint64
	heapMax   int
	laned     int // records queued across all lanes
	lanedMax  int

	runq Queue[*Proc]

	procs   []*Proc
	live    int // LPs not yet dead
	running *Proc
	stopped bool
	stopErr error
	started bool
	rng     *rand.Rand
}

// New returns a kernel whose deterministic random source is seeded with
// seed.  The source is available through Rand for workloads that need
// reproducible pseudo-randomness tied to the simulation.
func New(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Rand returns the kernel's deterministic random source.  It must only be
// used from LPs and event callbacks (never concurrently with Run from
// outside), which is the same discipline as every other kernel facility.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Stats are the kernel's own counters: how much queue work a run cost, as
// opposed to what it simulated.  They are plain counts, so a (program,
// seed) pair always reports the same values.
type Stats struct {
	// Scheduled counts the keys drawn: events entered (At/After/AtArg, LP
	// timers, lane appends) and Reserve calls, including reserved keys
	// whose event was never needed.  Fired counts the callbacks and LP
	// wakes dispatched, Cancelled the successful Cancel calls.  On a
	// completed run Scheduled is Fired + Cancelled + the reserved keys
	// never scheduled.
	Scheduled, Fired, Cancelled uint64
	// Resumes counts the switches into an LP: its first run and every
	// resume after a park.
	Resumes uint64
	// HeapMax is the deepest the event heap got and SlabMax the most
	// event slots ever allocated.
	HeapMax, SlabMax int
	// LaneMax is the most records queued across all lanes at once: an
	// event appended with At or AtKey is one record, and so is a whole run
	// queued with AtRun.
	LaneMax int
}

// Stats reports the kernel's counters so far.  Call it after Run, or from
// an LP or event callback.
func (k *Kernel) Stats() Stats {
	return Stats{
		Scheduled: k.seq,
		Fired:     k.fired,
		Cancelled: k.cancelled,
		Resumes:   k.resumes,
		HeapMax:   k.heapMax,
		SlabMax:   len(k.slab),
		LaneMax:   k.lanedMax,
	}
}

// EventID identifies a scheduled event for cancellation.  It packs the
// slot index and the slot's generation at schedule time; a recycled slot
// has a new generation, so stale IDs can never cancel a later event.  The
// zero EventID never names an event.
type EventID uint64

// Key is an event's place in dispatch order: its time, then its seq — the
// count of keys the kernel had drawn when it drew this one.  Events fire
// in ascending key order.
type Key struct {
	t   Time
	seq uint64
}

// before reports whether an event at key a fires before one at b.
func (a Key) before(b Key) bool {
	return a.t < b.t || a.t == b.t && a.seq < b.seq
}

// Reserve draws the key an event scheduled now at t would get (t clamped
// to the current time, as At does) without scheduling one.  Lane.AtKey
// can schedule an event at it later, for as long as it has not passed.
// The key counts in Stats.Scheduled whether or not that happens.
func (k *Kernel) Reserve(t Time) Key {
	if t < k.now {
		t = k.now
	}
	k.seq++
	return Key{t, k.seq}
}

// A Run is n keys drawn in one step, stride seqs apart: key i is at
// t + i·dt with the seq of the first plus i·stride.  The stride-1 seqs
// between two of its keys are drawn with it and belong to no other key, so
// Offset names them: a sender that reserves a release and a delivery per
// message, one after the other, reserves both runs at once with stride 2.
// Lane.AtRun queues a whole run as one record.
type Run struct {
	first     Key
	dt        Time
	n, stride int32
}

// ReserveRun draws the keys of n events at t, t+dt, ..., t+(n-1)·dt (t
// clamped to the current time, as Reserve does), stride seqs apart: the
// keys n·stride Reserve calls would draw with only every stride-th one
// kept.  All n·stride count in Stats.Scheduled.
func (k *Kernel) ReserveRun(t, dt Time, n, stride int) Run {
	if n < 1 || stride < 1 || dt < 0 || n*stride > math.MaxInt32 {
		panic(fmt.Sprintf("sim: ReserveRun of %d keys, stride %d, step %v", n, stride, dt))
	}
	if t < k.now {
		t = k.now
	}
	r := Run{Key{t, k.seq + 1}, dt, int32(n), int32(stride)}
	k.seq += uint64(n * stride)
	return r
}

// Len returns the number of keys in the run.
func (r Run) Len() int { return int(r.n) }

// Key returns the run's i-th key, 0 <= i < Len.
func (r Run) Key(i int) Key {
	return Key{r.first.t + Time(i)*r.dt, r.first.seq + uint64(i)*uint64(r.stride)}
}

// Last returns the run's newest key.
func (r Run) Last() Key { return r.Key(int(r.n) - 1) }

// Offset returns the run of keys d later and s seqs after each of r's,
// 0 <= s < stride: keys drawn with r that no key of r holds.
func (r Run) Offset(d Time, s int) Run {
	if s < 0 || s >= int(r.stride) {
		panic(fmt.Sprintf("sim: Run.Offset by %d seqs of a run of stride %d", s, r.stride))
	}
	r.first.t += d
	r.first.seq += uint64(s)
	return r
}

// Passed reports whether an event at key would already have fired: the
// kernel is dispatching it or an event after it.  While an LP runs, the
// event that last fired decides.  A reserved key that has passed can no
// longer be scheduled.
func (k *Kernel) Passed(key Key) bool {
	return key.t < k.now || key.t == k.now && key.seq <= k.cur
}

func makeEventID(idx int32, gen uint32) EventID {
	return EventID(uint64(idx+1)<<32 | uint64(gen))
}

func (id EventID) split() (idx int32, gen uint32) {
	return int32(uint64(id)>>32) - 1, uint32(uint64(id))
}

// --- 4-ary heap over the slot slab --------------------------------------

func (k *Kernel) slotLess(a, b int32) bool {
	sa, sb := &k.slab[a], &k.slab[b]
	if sa.t != sb.t {
		return sa.t < sb.t
	}
	return sa.seq < sb.seq
}

// heapPush adds a slot to the heap.  Every heap write goes through
// heapSet, so a slot's pos is always its index.
func (k *Kernel) heapPush(idx int32) {
	k.heap = append(k.heap, idx)
	if len(k.heap) > k.heapMax {
		k.heapMax = len(k.heap)
	}
	k.siftUp(len(k.heap) - 1)
}

func (k *Kernel) heapSet(i int, idx int32) {
	k.heap[i] = idx
	k.slab[idx].pos = int32(i)
}

// heapRemove unlinks the slot at heap index i.
func (k *Kernel) heapRemove(i int) {
	h := k.heap
	last := len(h) - 1
	k.slab[h[i]].pos = -1
	k.heap = h[:last]
	if i < last {
		k.heapSet(i, h[last])
		// The moved slot needs at most one of the two sifts; the other is
		// a no-op.
		k.siftDown(i)
		k.siftUp(i)
	}
}

func (k *Kernel) siftUp(i int) {
	h := k.heap
	x := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !k.slotLess(x, h[parent]) {
			break
		}
		k.heapSet(i, h[parent])
		i = parent
	}
	k.heapSet(i, x)
}

func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	x := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		end := min(first+4, n)
		for j := first + 1; j < end; j++ {
			if k.slotLess(h[j], h[m]) {
				m = j
			}
		}
		if !k.slotLess(h[m], x) {
			break
		}
		k.heapSet(i, h[m])
		i = m
	}
	k.heapSet(i, x)
}

// schedule inserts one event, reusing a free slot when available.
func (k *Kernel) schedule(t Time, fn func(), argFn func(any), arg any, proc *Proc) EventID {
	return k.scheduleKey(k.Reserve(t), fn, argFn, arg, proc)
}

// scheduleKey inserts one event at a key already drawn.
func (k *Kernel) scheduleKey(key Key, fn func(), argFn func(any), arg any, proc *Proc) EventID {
	idx := k.allocSlot()
	s := &k.slab[idx]
	s.t, s.seq = key.t, key.seq
	s.fn, s.argFn, s.arg, s.proc = fn, argFn, arg, proc
	k.heapPush(idx)
	return makeEventID(idx, s.gen)
}

// allocSlot takes a slot off the free list, growing the slab when it is
// empty.
func (k *Kernel) allocSlot() int32 {
	if n := len(k.free); n > 0 {
		idx := k.free[n-1]
		k.free = k.free[:n-1]
		return idx
	}
	k.slab = append(k.slab, eventSlot{})
	return int32(len(k.slab) - 1)
}

// freeSlot recycles a popped slot.  Bumping the generation invalidates
// every EventID issued for the slot's previous lives.
func (k *Kernel) freeSlot(idx int32) {
	s := &k.slab[idx]
	s.gen++
	s.pos = -1
	s.fn, s.argFn, s.arg, s.proc = nil, nil, nil, nil
	if s.gen == 0 {
		// The generation counter wrapped: an EventID issued 2^32 lives
		// ago would now alias a future event in this slot and could
		// cancel it (the ABA problem the generation exists to prevent).
		// Retire the slot instead of recycling it — one leaked slab
		// entry per four billion reuses of a single slot.
		return
	}
	k.free = append(k.free, idx)
}

// At schedules fn to run as an event callback at virtual time t.  If t is
// in the past it runs at the current time, after already-pending work.
func (k *Kernel) At(t Time, fn func()) EventID {
	return k.schedule(t, fn, nil, nil, nil)
}

// After schedules fn to run d from now.
func (k *Kernel) After(d Time, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return k.schedule(k.now+d, fn, nil, nil, nil)
}

// AtArg schedules fn(arg) at virtual time t.  Passing the argument
// explicitly lets hot paths share one callback func instead of allocating
// a closure per event.
func (k *Kernel) AtArg(t Time, fn func(any), arg any) EventID {
	return k.schedule(t, nil, fn, arg, nil)
}

// AfterArg schedules fn(arg) to run d from now.
func (k *Kernel) AfterArg(d Time, fn func(any), arg any) EventID {
	if d < 0 {
		d = 0
	}
	return k.schedule(k.now+d, nil, fn, arg, nil)
}

// Cancel revokes a pending event.  Cancelling an event that already fired
// (or was already cancelled) is a no-op and reports false.  The slot
// leaves the heap at once, in O(log n), and is recycled.
func (k *Kernel) Cancel(id EventID) bool {
	idx, gen := id.split()
	if idx < 0 || int(idx) >= len(k.slab) {
		return false
	}
	s := &k.slab[idx]
	if s.pos < 0 || s.gen != gen {
		return false
	}
	k.cancelled++
	k.heapRemove(int(s.pos))
	k.freeSlot(idx)
	return true
}

// Go spawns a new LP running fn.  It may be called before Run or from any
// LP or event callback during the simulation; the new LP becomes runnable
// immediately but does not start executing until the scheduler selects it.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:     k,
		id:    len(k.procs),
		name:  name,
		state: stateRunnable,
	}
	k.procs = append(k.procs, p)
	k.live++
	k.runq.Push(p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); !ok {
					// Run reports the panic as its error rather than
					// letting it cross the coroutine boundary.
					k.stopped = true
					k.stopErr = fmt.Errorf("sim: LP %q panicked: %v", p.name, r)
				}
			}
			p.state = stateDead
			k.live--
		}()
		p.checkKilled()
		fn(p)
	})
	return p
}

// killedPanic unwinds a killed LP's stack.
type killedPanic struct{ err error }

// ErrKilled is the cause recorded when an LP is removed by Kernel.Kill
// without a more specific reason.
var ErrKilled = errors.New("sim: process killed")

// Kill poisons an LP: the next kernel call it makes (or the pending one it
// is parked in) panics internally and the LP exits.  cause may be nil, in
// which case ErrKilled is used.  Killing a dead LP is a no-op.  An LP may
// not kill itself; it should just return.
func (k *Kernel) Kill(p *Proc, cause error) {
	if p.state == stateDead || p.killed != nil {
		return
	}
	if p == k.running {
		panic("sim: LP cannot Kill itself")
	}
	if cause == nil {
		cause = ErrKilled
	}
	p.killed = cause
	if p.state == stateParked {
		k.ready(p)
	}
}

// Killed reports the poison error set by Kill, or nil.
func (p *Proc) Killed() error { return p.killed }

func (p *Proc) checkKilled() {
	if p.killed != nil {
		panic(killedPanic{p.killed})
	}
}

// ready moves a parked LP to the run queue.  Dead or already-runnable LPs
// are skipped, which lets stale timer callbacks fire harmlessly.
func (k *Kernel) ready(p *Proc) {
	if p.state != stateParked {
		return
	}
	p.state = stateRunnable
	k.runq.Push(p)
}

// park switches back to the kernel until it resumes the LP.  A false
// return from yield means the kernel is unwinding the LP (stop, at the end
// of Run) rather than resuming it: it dies the way a killed LP does.
func (p *Proc) park() {
	p.checkKilled()
	p.state = stateParked
	if !p.yield(struct{}{}) && p.killed == nil {
		p.killed = ErrKilled
	}
	p.checkKilled()
}

// Advance blocks the LP for d of virtual time, modelling computation or
// idle waiting.  Negative durations advance by zero.  The timer carries
// the LP directly (no closure); the deferred Cancel only matters when the
// LP is killed while parked — otherwise the event has already fired and
// the cancel is a cheap no-op.
func (p *Proc) Advance(d Time) {
	p.checkKilled()
	if d < 0 {
		d = 0
	}
	id := p.k.schedule(p.k.now+d, nil, nil, nil, p)
	// If the LP is killed while parked, the timer would otherwise fire
	// later and drag virtual time forward for a dead process.
	defer p.k.Cancel(id)
	p.park()
}

// Yield reschedules the LP behind everything already runnable at the
// current instant, without advancing time.
func (p *Proc) Yield() {
	p.checkKilled()
	// The LP waits in the run queue as parked, so a Kill queues it a
	// second time; it dies on the first resume and Run skips the dead
	// second entry.
	p.k.runq.Push(p)
	p.park()
}

// Now returns the current virtual time (convenience mirror of Kernel.Now).
func (p *Proc) Now() Time { return p.k.now }

// Kernel returns the kernel this LP belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Stop ends the simulation after the currently executing step; Run returns
// err (which may be nil for a normal early stop).
func (k *Kernel) Stop(err error) {
	k.stopped = true
	if k.stopErr == nil {
		k.stopErr = err
	}
}

// ErrDeadlock is returned (wrapped) by Run when LPs remain parked but no
// event can ever wake them.
var ErrDeadlock = errors.New("sim: deadlock")

// runLP resumes a runnable LP and returns when it parks or exits.
func (k *Kernel) runLP(p *Proc) {
	p.state = stateRunning
	k.running = p
	k.resumes++
	p.next()
	k.running = nil
}

// Run executes the simulation until all LPs have exited, Stop is
// called, or no progress is possible.  It must be called exactly once, from
// the goroutine that built the kernel.
func (k *Kernel) Run() error {
	if k.started {
		return errors.New("sim: Run called twice")
	}
	k.started = true
	defer k.cleanup()
	for !k.stopped {
		switch {
		case k.runq.Len() > 0:
			p := k.runq.Pop()
			if p.state == stateDead {
				continue
			}
			k.runLP(p)
		case len(k.heap) > 0:
			idx := k.heap[0]
			s := &k.slab[idx]
			if s.t < k.now {
				return fmt.Errorf("sim: event time went backwards: %v < %v", s.t, k.now)
			}
			k.now, k.cur = s.t, s.seq
			k.fired++
			if s.owned() {
				s.arg.(slotOwner).fire(idx)
				continue
			}
			k.heapRemove(0)
			fn, argFn, arg, proc := s.fn, s.argFn, s.arg, s.proc
			k.freeSlot(idx)
			switch {
			case proc != nil:
				k.ready(proc)
			case argFn != nil:
				argFn(arg)
			default:
				fn()
			}
		default:
			if k.live > 0 {
				return fmt.Errorf("%w at t=%v: %d live LP(s) parked forever: %v",
					ErrDeadlock, k.now, k.live, k.parkedNames())
			}
			return nil
		}
	}
	return k.stopErr
}

// cleanup unwinds every LP still alive when Run returns (LPs outliving an
// early Stop, a deadlock or another LP's panic) so that a simulation leaves
// no coroutine behind.  An LP that never ran has no stack to unwind: stop
// just releases it.
func (k *Kernel) cleanup() {
	for _, p := range k.procs {
		if p.state != stateDead {
			p.stop()
		}
	}
}

func (k *Kernel) parkedNames() []string {
	var names []string
	for _, p := range k.procs {
		if p.state == stateParked {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// Cond is a condition variable integrated with the scheduler.  The usual
// pattern is
//
//	for !pred() {
//		cond.Wait(p)
//	}
//
// Signal wakes the longest-waiting LP; Broadcast wakes all.  Because the
// kernel is single-threaded there is no lock to hold around the predicate.
type Cond struct {
	k       *Kernel
	waiters []*Proc
}

// NewCond returns a condition variable bound to k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait parks the LP until Signal or Broadcast (or Kill).  Spurious wakeups
// are possible after a Broadcast race with Kill; always re-check the
// predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	p.checkKilled()
	c.waiters = append(c.waiters, p)
	defer c.remove(p)
	p.park()
}

func (c *Cond) remove(p *Proc) {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Signal wakes the longest-waiting LP, if any.
func (c *Cond) Signal() {
	for _, w := range c.waiters {
		if w.state == stateParked {
			c.k.ready(w)
			return
		}
	}
}

// Broadcast wakes every waiting LP.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		if w.state == stateParked {
			c.k.ready(w)
		}
	}
}
