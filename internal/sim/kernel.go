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
// counter so Cancel is an O(1) mark (the slot drains from the heap
// lazily), and timers that only wake an LP (Advance) carry the *Proc
// directly instead of a closure.  Bursts of events that share a callback
// and never go back in time (a NIC's transmit horizon) queue in a Lane,
// which keeps only its head in the heap (lane.go); timers that are re-armed
// far more often than they fire (a flow's completion) live in a Timers
// set, which likewise keeps only its earliest entry there (timers.go).
package sim

import (
	"errors"
	"fmt"
	"iter"
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
// heap entry; cancelled slots stay in the heap (lazily skipped on pop)
// and are recycled through the free list once popped.
//
// Lifetime rule (its declarations are checked by the pooled-holder rule
// of lint_test.go at the repo root): a *eventSlot obtained from the slab
// is only valid until the slot is freed — the generation counter advances
// and the same storage is handed to the next schedule call.  Never store
// a slot pointer in a field or global; hold the EventID instead, which
// detects recycling.
type eventSlot struct {
	t    Time
	seq  uint64
	gen  uint32
	live bool
	// owned marks the one slot a Lane or a Timers set keeps in the heap:
	// arg holds the owner (a slotOwner), which re-keys the slot rather than
	// freeing it while it has more entries.
	owned bool
	// Exactly one of the payload forms is set: fn (closure callback),
	// argFn+arg (closure-free callback), proc (wake the LP), or owned+arg.
	fn    func()
	argFn func(any)
	arg   any
	proc  *Proc
}

// slotOwner is what the kernel sees of a Lane or a Timers set: firing its
// slot, which sits at the heap root, dispatches its earliest entry.
type slotOwner interface{ fire(idx int32) }

// Kernel is a discrete-event scheduler.  Create one with New, add LPs with
// Go and events with At/After, then call Run.
type Kernel struct {
	now  Time
	seq  uint64
	slab []eventSlot
	free []int32 // recycled slot indices (LIFO)
	heap []int32 // 4-ary min-heap of slot indices, keyed by (t, seq)

	dead int // cancelled slots still parked in the heap

	// Counters behind Stats.  seq doubles as the scheduled count.
	fired     uint64
	cancelled uint64
	heapMax   int
	laned     int // entries queued across all lanes
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
	// Scheduled counts events entered (At/After/AtArg, LP timers and lane
	// appends), Fired the callbacks and LP wakes dispatched, Cancelled the
	// successful Cancel calls.
	Scheduled, Fired, Cancelled uint64
	// HeapMax is the deepest the event heap got and SlabMax the most
	// event slots ever allocated.
	HeapMax, SlabMax int
	// LaneMax is the most entries queued across all lanes at once.
	LaneMax int
}

// Stats reports the kernel's counters so far.  Call it after Run, or from
// an LP or event callback.
func (k *Kernel) Stats() Stats {
	return Stats{
		Scheduled: k.seq,
		Fired:     k.fired,
		Cancelled: k.cancelled,
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

func (k *Kernel) heapPush(idx int32) {
	k.heap = append(k.heap, idx)
	h := k.heap
	if len(h) > k.heapMax {
		k.heapMax = len(h)
	}
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !k.slotLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (k *Kernel) heapPop() int32 {
	h := k.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	k.heap = h[:last]
	k.siftDown(0)
	return top
}

func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for j := first + 1; j < end; j++ {
			if k.slotLess(h[j], h[m]) {
				m = j
			}
		}
		if !k.slotLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// compactHeap drops cancelled slots and re-heapifies.  Called once more
// than half the heap is dead, it keeps a cancel-heavy workload (rearming
// timeouts, abandoned flows) at amortised O(1) per cancel and bounds the
// queue's memory by twice its live population.
func (k *Kernel) compactHeap() {
	h := k.heap[:0]
	for _, idx := range k.heap {
		if k.slab[idx].live {
			h = append(h, idx)
		} else {
			k.freeSlot(idx)
		}
	}
	k.heap = h
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		k.siftDown(i)
	}
	k.dead = 0
}

// schedule inserts one event, reusing a free slot when available.
func (k *Kernel) schedule(t Time, fn func(), argFn func(any), arg any, proc *Proc) EventID {
	if t < k.now {
		t = k.now
	}
	k.seq++
	idx := k.allocSlot()
	s := &k.slab[idx]
	s.t, s.seq, s.live = t, k.seq, true
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
	s.live = false
	s.owned = false
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
// (or was already cancelled) is a no-op and reports false.  Cancellation
// is O(1): the slot is marked dead and drains from the heap lazily.
func (k *Kernel) Cancel(id EventID) bool {
	idx, gen := id.split()
	if idx < 0 || int(idx) >= len(k.slab) {
		return false
	}
	s := &k.slab[idx]
	if !s.live || s.gen != gen {
		return false
	}
	k.cancelled++
	k.retire(idx)
	return true
}

// retire marks a pending slot dead where it sits in the heap: Run frees it
// when it surfaces, or compactHeap sooner.
func (k *Kernel) retire(idx int32) {
	s := &k.slab[idx]
	s.live = false
	s.fn, s.argFn, s.arg, s.proc = nil, nil, nil, nil
	k.dead++
	if k.dead > 64 && k.dead > len(k.heap)/2 {
		k.compactHeap()
	}
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
			if !s.live {
				k.heapPop()
				k.freeSlot(idx)
				k.dead--
				continue
			}
			if s.t < k.now {
				return fmt.Errorf("sim: event time went backwards: %v < %v", s.t, k.now)
			}
			k.now = s.t
			k.fired++
			if s.owned {
				s.arg.(slotOwner).fire(idx)
				continue
			}
			k.heapPop()
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
