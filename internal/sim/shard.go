package sim

// Sharded conservative-parallel execution (SetShards > 1).
//
// The event queue is partitioned into shards, each owning a private
// 4-ary min-heap over the shared slot slab plus an inbox of slots routed
// to it since its last activation.  Execution alternates two phases:
//
//	staging   Every shard worker, on its own goroutine, merges its
//	          inbox, compacts away cancelled slots when they dominate,
//	          and pops every event inside the conservative time window
//	          [tmin, tmin+lookahead] into an ordered staging run.  The
//	          window bound is the classic Chandy–Misra guarantee: no
//	          event outside the window can schedule work inside it with
//	          less than the minimum link latency of lookahead, so the
//	          staged runs are jointly complete for the window.
//	dispatch  The executor (the Run goroutine) merges the staged runs —
//	          plus an overflow heap of events scheduled *during* the
//	          window with timestamps inside it — and fires callbacks one
//	          at a time in the global (time, seq) total order.
//
// Because seq is assigned in schedule order and callbacks fire in exactly
// the sequential kernel's order, a sharded run is byte-identical to a
// sequential run of the same seed by construction: shard placement and
// lookahead influence only which goroutine performs the heap work.  The
// phases hand off through the workers' request/done channels, whose
// happens-before edges make the slab sharing race-free: workers touch
// only slots resident in their own heap, and only while the executor is
// parked at the staging barrier.
//
// What parallelizes is therefore the queue maintenance — heap pushes and
// sifts, dead-slot draining, compaction — which the PR 4 profile showed
// dominating large-NP runs alongside the callbacks themselves.  Running
// the callbacks shard-locally too (true parallel LP execution) needs a
// deterministic replacement for the global seq tie-break and is recorded
// in ROADMAP as the follow-up step.

import (
	"fmt"
	"math"
)

// timeMax is a sentinel later than every schedulable timestamp.
const timeMax = Time(math.MaxInt64)

// shard is one partition of the event queue.  All fields are owned by the
// shard's worker during staging and by the executor otherwise; the
// request/done channel pair transfers ownership.  The mutable queue state
// is marked //ftlint:shardlocal: ftlint's shardconfine analyzer proves no
// code outside the shard's own methods or a //ftlint:crossshard function
// ever writes it — the confinement discipline the parallel-callback
// ROADMAP item needs (DESIGN §5.13).
type shard struct {
	k  *Kernel
	id int
	//ftlint:shardlocal
	heap []int32 // 4-ary min-heap of slot indices, keyed by (t, seq)
	//ftlint:shardlocal
	heapMax int // deepest the heap got, for Stats
	//ftlint:shardlocal
	dead int // cancelled slots still in heap or inbox

	//ftlint:shardlocal
	inbox []int32 // slots routed here since the last staging
	//ftlint:shardlocal
	run []int32 // staged events for the open window, (t, seq)-ordered
	//ftlint:shardlocal
	runHead int
	//ftlint:shardlocal
	freed []int32 // dead slots drained during staging; executor recycles

	req  chan Time // window end; closed to retire the worker
	done chan struct{}
}

// noteDead counts a cancelled slot still owned by this shard (heap or
// inbox) so the staging worker knows when to compact.  Cancel calls it
// from outside the shard: safe, because callbacks — the only code that
// cancels during a run — execute on the single-threaded dispatch side of
// the window barrier, while every staging worker is parked.
//
//ftlint:crossshard
func (sh *shard) noteDead() { sh.dead++ }

func (sh *shard) less(a, b int32) bool {
	sa, sb := &sh.k.slab[a], &sh.k.slab[b]
	if sa.t != sb.t {
		return sa.t < sb.t
	}
	return sa.seq < sb.seq
}

func (sh *shard) push(idx int32) {
	sh.heap = append(sh.heap, idx)
	h := sh.heap
	if len(h) > sh.heapMax {
		sh.heapMax = len(h)
	}
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !sh.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (sh *shard) pop() int32 {
	h := sh.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	sh.heap = h[:last]
	sh.siftDown(0)
	return top
}

func (sh *shard) siftDown(i int) {
	h := sh.heap
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
			if sh.less(h[j], h[m]) {
				m = j
			}
		}
		if !sh.less(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// compact mirrors Kernel.compactHeap for one shard: drop cancelled slots
// and re-heapify, collecting the corpses for the executor to recycle.
func (sh *shard) compact() {
	h := sh.heap[:0]
	for _, idx := range sh.heap {
		if sh.k.slab[idx].live {
			h = append(h, idx)
		} else {
			sh.freed = append(sh.freed, idx)
		}
	}
	sh.heap = h
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		sh.siftDown(i)
	}
	sh.dead = 0
}

// stage prepares the shard's contribution to the window ending at wend:
// merge the inbox, compact if cancellations dominate, then pop every
// event with t <= wend into the staging run in (t, seq) order.
func (sh *shard) stage(wend Time) {
	slab := sh.k.slab
	for _, idx := range sh.inbox {
		if !slab[idx].live {
			sh.freed = append(sh.freed, idx)
			sh.dead--
			continue
		}
		sh.push(idx)
	}
	sh.inbox = sh.inbox[:0]
	if sh.dead > 64 && sh.dead > len(sh.heap)/2 {
		sh.compact()
	}
	sh.run = sh.run[:0]
	sh.runHead = 0
	for len(sh.heap) > 0 {
		top := sh.heap[0]
		s := &slab[top]
		if !s.live {
			sh.pop()
			sh.freed = append(sh.freed, top)
			sh.dead--
			continue
		}
		if s.t > wend {
			break
		}
		sh.pop()
		s.staged = true
		sh.run = append(sh.run, top)
	}
}

// serve is the worker loop: one staging pass per request, retiring when
// the request channel closes.  Closing done signals the worker has exited
// (and, for -race, publishes all its writes to the joiner).
func (sh *shard) serve() {
	defer close(sh.done)
	for wend := range sh.req {
		sh.stage(wend)
		sh.done <- struct{}{}
	}
}

// head reports the earliest (t, seq) still in the shard's heap.  Executor
// only, between windows.
func (sh *shard) head() (Time, uint64) {
	if len(sh.heap) == 0 {
		return timeMax, 0
	}
	s := &sh.k.slab[sh.heap[0]]
	return s.t, s.seq
}

// SetShards partitions the event queue into n shards, each staged by its
// own worker goroutine during Run.  n <= 1 leaves the kernel sequential
// (the default).  Must be called before Run and at most once; events
// already scheduled, lane entries included, are handed to shard 0.
// Sharding never changes simulation output — it only parallelizes queue
// maintenance — so any shard count is safe for any workload.
func (k *Kernel) SetShards(n int) {
	if k.started {
		panic("sim: SetShards after Run")
	}
	if k.nshards > 1 {
		panic("sim: SetShards called twice")
	}
	if n <= 1 {
		return
	}
	k.nshards = n
	k.shards = make([]*shard, n)
	k.inboxMin = make([]Time, n)
	for i := range k.shards {
		k.shards[i] = &shard{
			k:    k,
			id:   i,
			req:  make(chan Time),
			done: make(chan struct{}),
		}
		k.inboxMin[i] = timeMax
	}
	pending := k.heap
	k.heap = nil
	k.dead = 0
	for _, idx := range pending {
		switch s := &k.slab[idx]; {
		case !s.live:
			k.freeSlot(idx)
		case s.lane:
			k.unlane(idx)
		default:
			k.routeSlot(idx, 0)
		}
	}
}

// NumShards reports the configured shard count (1 when sequential).
func (k *Kernel) NumShards() int {
	if k.nshards > 1 {
		return k.nshards
	}
	return 1
}

// SetLookahead sets the conservative window width: the minimum virtual
// delay between scheduling contexts, typically the minimum link latency
// of the simulated network.  Larger values stage more events per barrier;
// the value never affects correctness or output, only batching.  Zero (the
// default) degenerates to one timestamp cluster per window.
func (k *Kernel) SetLookahead(d Time) {
	if d < 0 {
		d = 0
	}
	k.lookahead = d
}

// Lookahead reports the configured conservative window width.
func (k *Kernel) Lookahead() Time { return k.lookahead }

// routeSlot places a freshly scheduled slot: into the executor's overflow
// heap when it lands inside the open window (it must dispatch this
// window to preserve the total order), otherwise into the owner shard's
// inbox for the next staging pass.  This is the sanctioned cross-shard
// write path: it only ever runs on the executor goroutine, between or
// inside dispatch, while every worker is parked at the barrier.
//
//ftlint:crossshard
func (k *Kernel) routeSlot(idx int32, owner int32) {
	s := &k.slab[idx]
	s.shard = owner
	if k.inWindow && s.t <= k.windowEnd {
		s.staged = true
		k.ovPush(idx)
		return
	}
	s.staged = false
	sh := k.shards[owner]
	sh.inbox = append(sh.inbox, idx)
	if s.t < k.inboxMin[owner] {
		k.inboxMin[owner] = s.t
	}
}

// --- overflow heap (binary, executor-only) ------------------------------

func (k *Kernel) ovPush(idx int32) {
	k.ov = append(k.ov, idx)
	h := k.ov
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.slotLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (k *Kernel) ovPop() int32 {
	h := k.ov
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	k.ov = h
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		m := l
		if r := l + 1; r < len(h) && k.slotLess(h[r], h[l]) {
			m = r
		}
		if !k.slotLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// horizonMin finds the earliest pending event across every shard heap and
// inbox.  Executor only, between windows (workers parked).
func (k *Kernel) horizonMin() Time {
	tmin := timeMax
	for i, sh := range k.shards {
		if t, _ := sh.head(); t < tmin {
			tmin = t
		}
		if k.inboxMin[i] < tmin {
			tmin = k.inboxMin[i]
		}
	}
	return tmin
}

// mergeNext pops the globally-least (t, seq) event among the staged runs
// and the overflow heap.  Executor-only, workers parked: advancing a
// shard's staged-run cursor from here is the merge API, hence the
// crossshard sanction.
//
//ftlint:crossshard
func (k *Kernel) mergeNext() (int32, bool) {
	best := int32(-1)
	var src *shard
	for _, sh := range k.shards {
		if sh.runHead < len(sh.run) {
			idx := sh.run[sh.runHead]
			if best < 0 || k.slotLess(idx, best) {
				best, src = idx, sh
			}
		}
	}
	fromOv := false
	if len(k.ov) > 0 && (best < 0 || k.slotLess(k.ov[0], best)) {
		best, fromOv = k.ov[0], true
	}
	if best < 0 {
		return 0, false
	}
	if fromOv {
		k.ovPop()
	} else {
		src.runHead++
	}
	return best, true
}

// dispatchWindow fires the staged window in total order, draining the LP
// run queue between events exactly like the sequential loop.
func (k *Kernel) dispatchWindow() error {
	for !k.stopped {
		if len(k.runq) > k.runqHead {
			p := k.popRunq()
			if p.state == stateDead {
				continue
			}
			k.runLP(p)
			continue
		}
		idx, ok := k.mergeNext()
		if !ok {
			return nil
		}
		s := &k.slab[idx]
		if !s.live {
			k.freeSlot(idx)
			continue
		}
		if s.t < k.now {
			return fmt.Errorf("sim: event time went backwards: %v < %v", s.t, k.now)
		}
		k.now = s.t
		k.fired++
		k.curShard = s.shard
		fn, argFn, arg, proc := s.fn, s.argFn, s.arg, s.proc
		k.freeSlot(idx)
		if k.Trace != nil {
			k.Trace(k.now, "event")
		}
		switch {
		case proc != nil:
			k.ready(proc)
		case argFn != nil:
			argFn(arg)
		default:
			fn()
		}
	}
	return nil
}

// runSharded is Run's body when SetShards > 1: alternate parallel staging
// with total-order dispatch until the simulation ends.  It recycles every
// shard's freed list at the barrier — a cross-shard write that is safe
// because the worker just handed ownership back through its done channel.
//
//ftlint:crossshard
func (k *Kernel) runSharded() error {
	for _, sh := range k.shards {
		go sh.serve()
	}
	defer func() {
		for _, sh := range k.shards {
			close(sh.req)
			<-sh.done
		}
	}()
	for !k.stopped {
		if len(k.runq) > k.runqHead {
			p := k.popRunq()
			if p.state == stateDead {
				continue
			}
			k.runLP(p)
			continue
		}
		tmin := k.horizonMin()
		if tmin == timeMax {
			if k.live > 0 {
				return fmt.Errorf("%w at t=%v: %d live LP(s) parked forever: %v",
					ErrDeadlock, k.now, k.live, k.parkedNames())
			}
			return nil
		}
		wend := tmin
		if wend <= timeMax-k.lookahead {
			wend += k.lookahead
		}
		for _, sh := range k.shards {
			sh.req <- wend
		}
		for i, sh := range k.shards {
			<-sh.done
			k.inboxMin[i] = timeMax
		}
		for _, sh := range k.shards {
			for _, idx := range sh.freed {
				k.freeSlot(idx)
			}
			sh.freed = sh.freed[:0]
		}
		k.inWindow, k.windowEnd = true, wend
		err := k.dispatchWindow()
		k.inWindow = false
		if err != nil {
			return err
		}
	}
	return k.stopErr
}
