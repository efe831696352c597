package sim

// Model-based test of the kernel's one contract: callbacks and LP wakes
// are dispatched in (t, seq) order, where seq is the order of scheduling.
// Programs of At/After/AtArg/Cancel/Kill/Lane.At, held-timer arms and
// stops, Reserve/Lane.AtKey/Passed and ReserveRun/Lane.AtRun run against
// the real kernel and
// against a reference that keeps every pending event in one sorted slice.
// A held timer is an EventID kept across calls, as simnet keeps a flow's
// completion: the real kernel re-arms it by Cancel plus AtArg and stops it
// by Cancel.  A reserved key is a placeholder that AtKey turns into an
// event and that has passed once it is popped; a run is its events, and
// with stride 2 a reserved key before each of them, added one by one.
// The two logs (dispatches and Passed answers) and the kernel's counters must match.  The programs
// come from a seed (TestKernelMatchesSortedSliceModel) or from
// fuzzer-chosen bytes (FuzzKernelModel, corpus under testdata/fuzz).

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const (
	modelLanes   = 3
	modelTimers  = 3
	modelLPs     = 3
	modelLPSteps = 6
	modelBudget  = 400 // events one program may schedule
)

// modelOps is what a program can do to a machine.
type modelOps interface {
	now() Time
	schedule(kind int, t Time, id int) // kind 0 At, 1 After, 2 AtArg
	laneAt(lane int, t Time, id int)
	cancel(id int)
	kill(lp int)
	arm(timer int, t Time, id int) // timer now fires as event id
	stop(timer int)
	reserve(t Time)                  // Kernel.Reserve: the next key, numbered in draw order
	laneAtKey(lane, key int, id int) // Lane.AtKey: event id fires at key
	passed(key int) bool
	// ReserveRun(t, dt, n, stride) and Lane.AtRun: with stride 1 the run's
	// events id0.. fire at its keys; with stride 2 they fire d later, one
	// seq after each key, and the keys themselves are reserved keys.
	laneRun(lane int, t, d, dt Time, n, stride, id0 int)
}

// modelRec is one dispatch — an event callback ('e'), an LP returning from
// Advance ('w') or an LP exiting ('x') — or a Passed answer about a key,
// true ('p') or false ('n').
type modelRec struct {
	what byte
	id   int
	t    Time
}

// modelDraw is a stream of decisions: *rand.Rand or bytes.
type modelDraw interface{ Intn(n int) int }

// byteDraw reads decisions from data, one byte each, wrapping at the end.
type byteDraw struct {
	data []byte
	pos  int
}

func (b *byteDraw) Intn(n int) int {
	v := int(b.data[b.pos%len(b.data)])
	b.pos++
	return v % n
}

// modelBlock is how many bytes of a fuzz input belong to one decision
// stream before it runs into the next one's.
const modelBlock = 16

// modelProg is a program.  Everything it decides derives from seed (or
// data) and the id of the firing event, so two machines that dispatch in
// the same order see the same program, and a divergence stays local.
type modelProg struct {
	seed        int64
	data        []byte // when set, decisions come from here, not from seed
	m           modelOps
	budget      int
	laneOf      []int // per event id: its lane, or -1
	cancellable []int
	laneTail    [modelLanes]Time
	log         []modelRec
	inSetup     bool        // the program is setting up, before Run
	keys        []bool      // per reserved key: scheduled by AtKey
	keyOf       map[int]int // event id → the reserved key it fires at
	runKey      []bool      // per reserved key: drawn by a run of stride 2
	cover       modelCover
}

// modelCover counts the reserved-key cases a program reached.
type modelCover struct {
	belowTail  int // AtKey below the lane's newest entry: an ordinary event
	atReserve  int // Passed right after Reserve, at the reserving instant
	ownKey     int // Passed on the key of the event being dispatched
	passedTrue int // Passed answers true
	runs       int // AtRun queued a run as one record
	splitRuns  int // AtRun below the lane's newest entry: queued event by event
	runKeys    int // AtKey at a key reserved between a run's events
}

// rng returns the decision stream for salt: -1 is setup, an event id its
// firing, anything lower an LP delay.  With data, stream salt starts at
// block salt+modelLPs*modelLPSteps+2, so every stream has a block of its
// own in a long enough input.
func (p *modelProg) rng(salt int) modelDraw {
	if p.data != nil {
		return &byteDraw{p.data, (salt + modelLPs*modelLPSteps + 2) * modelBlock}
	}
	return rand.New(rand.NewSource(p.seed*1_000_003 + int64(salt)))
}

func (p *modelProg) newID(lane int) int {
	p.budget--
	p.laneOf = append(p.laneOf, lane)
	return len(p.laneOf) - 1
}

// query logs the machine's Passed answer for key.
func (p *modelProg) query(key int) bool {
	ok := p.m.passed(key)
	what := byte('n')
	if ok {
		what = 'p'
		p.cover.passedTrue++
	}
	p.log = append(p.log, modelRec{what, key, p.m.now()})
	return ok
}

// pickLane picks a lane to append to: any, or the firing event's own.
func (p *modelProg) pickLane(r modelDraw, self int) int {
	if self >= 0 && r.Intn(2) == 0 {
		return self // a lane appended to from its own callback
	}
	return r.Intn(modelLanes)
}

// act performs n random operations; self is the lane of the firing event.
// Ops 0-25 are laid out as before reserved keys existed and 0-31 as before
// lane runs, so a corpus input whose op decisions stay below 26 (32)
// decodes to the same program.
func (p *modelProg) act(r modelDraw, n, self int) {
	for i := 0; i < n; i++ {
		switch op := r.Intn(34); {
		case op < 6 && p.budget > 0:
			id := p.newID(-1)
			p.cancellable = append(p.cancellable, id)
			// Two ticks into the past up to five ahead: clamping and ties.
			p.m.schedule(r.Intn(3), p.m.now()+Time(r.Intn(8)-2), id)
		case op < 15 && p.budget > 0:
			lane := p.pickLane(r, self)
			t := p.laneTail[lane] + Time(r.Intn(3))
			if r.Intn(5) == 0 {
				t = p.m.now() + Time(r.Intn(3)) // may precede the lane's tail
			}
			if t > p.laneTail[lane] {
				p.laneTail[lane] = t
			}
			p.m.laneAt(lane, t, p.newID(lane))
		case op < 19:
			if len(p.cancellable) > 0 {
				p.m.cancel(p.cancellable[r.Intn(len(p.cancellable))])
			}
		case op < 20:
			// Only once Run is dispatching: an LP killed before it first
			// ran never enters its body, so it has nothing to log.
			if !p.inSetup {
				p.m.kill(r.Intn(modelLPs))
			}
		case op < 24 && p.budget > 0:
			// Arm or re-arm, from two ticks into the past up to five ahead.
			p.m.arm(r.Intn(modelTimers), p.m.now()+Time(r.Intn(8)-2), p.newID(-1))
			// One more decision is drawn and not used, so that the
			// committed corpus inputs decode to the programs they did.
			r.Intn(3)
		case op < 26:
			p.m.stop(r.Intn(modelTimers))
		case op < 28 && p.budget > 0:
			// Two ticks into the past up to five ahead, like At; asked at
			// once whether it has passed, and half the time scheduled at
			// once too.
			p.budget--
			p.m.reserve(p.m.now() + Time(r.Intn(8)-2))
			p.keys = append(p.keys, false)
			p.runKey = append(p.runKey, false)
			p.cover.atReserve++
			key := len(p.keys) - 1
			if !p.query(key) && r.Intn(2) == 0 {
				p.atKey(r, self, key)
			}
		case op >= 32:
			p.laneRun(r, self)
		case op < 30:
			// One of the last four keys drawn, the likeliest to be pending.
			if n := len(p.keys); n > 0 {
				p.tryAtKey(r, self, n-1-r.Intn(min(n, 4)))
			}
		default:
			// Any key drawn: most have passed.
			if n := len(p.keys); n > 0 {
				p.tryAtKey(r, self, r.Intn(n))
			}
		}
	}
}

// laneRun queues a run of one to four events on a lane, from its tail (or
// the present, which may precede it) with a step of up to two ticks; with
// stride 2 the events sit up to two ticks after reserved keys.
func (p *modelProg) laneRun(r modelDraw, self int) {
	lane := p.pickLane(r, self)
	n, stride := 1+r.Intn(4), 1+r.Intn(2)
	dt, d := Time(r.Intn(3)), Time(0)
	if stride == 2 {
		d = Time(r.Intn(3))
	}
	t := p.laneTail[lane] + Time(r.Intn(3))
	if r.Intn(5) == 0 {
		t = p.m.now() + Time(r.Intn(3)) - 1
	}
	if p.budget < n*stride {
		return
	}
	id0 := len(p.laneOf)
	for i := 0; i < n; i++ {
		p.newID(lane)
	}
	if stride == 2 {
		for i := 0; i < n; i++ {
			p.budget--
			p.keys = append(p.keys, false)
			p.runKey = append(p.runKey, true)
		}
	}
	if last := max(t, p.m.now()) + d + Time(n-1)*dt; last > p.laneTail[lane] {
		p.laneTail[lane] = last
	}
	p.m.laneRun(lane, t, d, dt, n, stride, id0)
}

// tryAtKey asks whether a reserved key has passed and, if it has not and
// is not scheduled yet, schedules it.
func (p *modelProg) tryAtKey(r modelDraw, self, key int) {
	if !p.query(key) && !p.keys[key] && p.budget > 0 {
		p.atKey(r, self, key)
	}
}

// atKey schedules a new event at a reserved key that has not passed.
func (p *modelProg) atKey(r modelDraw, self, key int) {
	p.keys[key] = true
	if p.runKey[key] {
		p.cover.runKeys++
	}
	lane := p.pickLane(r, self)
	id := p.newID(lane)
	p.keyOf[id] = key
	p.m.laneAtKey(lane, key, id)
}

func (p *modelProg) setup() {
	p.inSetup = true
	p.act(p.rng(-1), 16, -1)
	p.inSetup = false
}

func (p *modelProg) fire(id int) {
	p.log = append(p.log, modelRec{'e', id, p.m.now()})
	r := p.rng(id)
	if key, ok := p.keyOf[id]; ok {
		// An event scheduled at a reserved key: that key is passing now.
		p.cover.ownKey++
		p.query(key)
	}
	// Up to four operations: most arms re-arm a pending timer and add no
	// event, and with three at most some programs die out early.
	p.act(r, 1+r.Intn(4), p.laneOf[id])
}

// lpDelay is how long LP lp sleeps in its step-th Advance.
func (p *modelProg) lpDelay(lp, step int) Time {
	return Time(p.rng(-2 - lp*modelLPSteps - step).Intn(6))
}

// --- the real kernel ------------------------------------------------------

type realMachine struct {
	k     *Kernel
	keys  []Key
	p     *modelProg
	ids   map[int]EventID
	lanes [modelLanes]*Lane[int]
	lps   [modelLPs]*Proc
	held  [modelTimers]EventID // each timer's last event, pending or not
}

// modelOldSlots is how many slots the real machine starts with, and
// modelLivesLeft how many lives each has left before its generation
// wraps: a program reuses them, so it runs through slot retirement.  The
// slot handed out first (the free list's top) has a single life left, so
// that even a fuzzed program that reuses few slots retires one; the seeded
// programs must also retire one of the others, under realistic reuse.
const (
	modelOldSlots  = 8
	modelLivesLeft = 3
)

func newRealMachine(p *modelProg) *realMachine {
	m := &realMachine{k: New(1), p: p, ids: make(map[int]EventID)}
	p.m = m
	for i := int32(0); i < modelOldSlots; i++ {
		lives := uint32(modelLivesLeft)
		if i == modelOldSlots-1 {
			lives = 1
		}
		m.k.slab = append(m.k.slab, eventSlot{gen: ^uint32(0) - (lives - 1), pos: -1})
		m.k.free = append(m.k.free, i)
	}
	for i := range m.lanes {
		m.lanes[i] = NewRunLane(m.k, m.fire, func(id, i int) int { return id + i })
	}
	for i := range m.lps {
		lp := i
		m.lps[i] = m.k.Go(fmt.Sprint("lp", lp), func(pr *Proc) {
			defer func() { p.log = append(p.log, modelRec{'x', lp, pr.Now()}) }()
			for step := 0; step < modelLPSteps; step++ {
				pr.Advance(p.lpDelay(lp, step))
				p.log = append(p.log, modelRec{'w', lp, pr.Now()})
			}
		})
	}
	return m
}

func (m *realMachine) fire(id int)   { m.p.fire(id) }
func (m *realMachine) fireArg(x any) { m.p.fire(x.(int)) }
func (m *realMachine) now() Time     { return m.k.Now() }

// retired counts the slots whose generation wrapped — the kernel took
// them out of use — in all and among the slots that started with
// modelLivesLeft lives.
func (m *realMachine) retired() (all, full int) {
	for i := range m.k.slab {
		if s := &m.k.slab[i]; s.gen == 0 && s.pos < 0 && !slices.Contains(m.k.free, int32(i)) {
			all++
			if i < modelOldSlots-1 {
				full++
			}
		}
	}
	return all, full
}

func (m *realMachine) schedule(kind int, t Time, id int) {
	switch kind {
	case 0:
		m.ids[id] = m.k.At(t, func() { m.p.fire(id) })
	case 1:
		m.ids[id] = m.k.After(t-m.k.Now(), func() { m.p.fire(id) })
	default:
		m.ids[id] = m.k.AtArg(t, m.fireArg, id)
	}
}

func (m *realMachine) laneAt(lane int, t Time, id int) { m.lanes[lane].At(t, id) }

func (m *realMachine) laneRun(lane int, t, d, dt Time, n, stride, id0 int) {
	l := m.lanes[lane]
	r := m.k.ReserveRun(t, dt, n, stride)
	if stride == 2 {
		for i := 0; i < n; i++ {
			m.keys = append(m.keys, r.Key(i))
		}
		r = r.Offset(d, 1)
	}
	switch {
	case n == 1:
	case l.q.Len() > 0 && r.first.before(l.tail):
		m.p.cover.splitRuns++
	default:
		m.p.cover.runs++
	}
	l.AtRun(r, id0)
}

func (m *realMachine) cancel(id int) { m.k.Cancel(m.ids[id]) }
func (m *realMachine) kill(lp int)   { m.k.Kill(m.lps[lp], nil) }

func (m *realMachine) arm(timer int, t Time, id int) {
	m.k.Cancel(m.held[timer])
	m.held[timer] = m.k.AtArg(t, m.fireArg, id)
}

func (m *realMachine) stop(timer int) { m.k.Cancel(m.held[timer]) }

func (m *realMachine) reserve(t Time)      { m.keys = append(m.keys, m.k.Reserve(t)) }
func (m *realMachine) passed(key int) bool { return m.k.Passed(m.keys[key]) }

func (m *realMachine) laneAtKey(lane, key, id int) {
	l := m.lanes[lane]
	if l.q.Len() > 0 && m.keys[key].before(l.tail) {
		m.p.cover.belowTail++
	}
	l.AtKey(m.keys[key], id)
}

// --- the reference ----------------------------------------------------------

type refEvent struct {
	t     Time
	seq   uint64
	id    int // event id, the LP for a wake timer, or -1 for a reserved key not scheduled
	lp    bool
	timer int // the held timer this event is, or -1
	key   int // the reserved key this is, or -1
}

type refMachine struct {
	p         *modelProg
	clock     Time
	seq       uint64
	fired     uint64
	cancelled uint64
	armed     [modelTimers]int // each timer's pending event id, or -1
	pending   []refEvent       // sorted by (t, seq)
	passedKey []bool           // per reserved key: popped
	step      [modelLPs]int
	gone      [modelLPs]bool // exited or killed
	killq     []int
}

func (m *refMachine) now() Time { return m.clock }

func (m *refMachine) add(t Time, id int, lp bool, timer int) {
	m.addKey(t, id, lp, timer, -1)
}

func (m *refMachine) addKey(t Time, id int, lp bool, timer, key int) {
	if t < m.clock {
		t = m.clock
	}
	m.seq++
	m.pending = append(m.pending, refEvent{t, m.seq, id, lp, timer, key})
	sort.Slice(m.pending, func(i, j int) bool {
		a, b := m.pending[i], m.pending[j]
		if a.t != b.t {
			return a.t < b.t
		}
		return a.seq < b.seq
	})
}

// remove cancels a pending event, counting it as the kernel's Cancel
// would.
func (m *refMachine) remove(id int, lp bool) {
	for i, e := range m.pending {
		if e.id == id && e.lp == lp {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			m.cancelled++
			return
		}
	}
}

func (m *refMachine) schedule(_ int, t Time, id int) { m.add(t, id, false, -1) }
func (m *refMachine) laneAt(_ int, t Time, id int)   { m.add(t, id, false, -1) }
func (m *refMachine) cancel(id int)                  { m.remove(id, false) }
func (m *refMachine) passed(key int) bool            { return m.passedKey[key] }

// reserve is a placeholder event that fires nothing.
func (m *refMachine) reserve(t Time) {
	m.passedKey = append(m.passedKey, false)
	m.addKey(t, -1, false, -1, len(m.passedKey)-1)
}

// laneRun adds the run's reserved keys and events in draw order: for
// each event, its reserved key first when there is one.
func (m *refMachine) laneRun(_ int, t, d, dt Time, n, stride, id0 int) {
	t = max(t, m.clock)
	for i := 0; i < n; i++ {
		at := t + Time(i)*dt
		if stride == 2 {
			m.passedKey = append(m.passedKey, false)
			m.addKey(at, -1, false, -1, len(m.passedKey)-1)
		}
		m.add(at+d, id0+i, false, -1)
	}
}

// laneAtKey makes the key's placeholder event id, where it stands.
func (m *refMachine) laneAtKey(_, key, id int) {
	for i := range m.pending {
		if m.pending[i].key == key {
			m.pending[i].id = id
			return
		}
	}
	panic(fmt.Sprintf("model: reserved key %d not pending", key))
}

// arm is a re-arm as a Cancel plus a schedule.
func (m *refMachine) arm(timer int, t Time, id int) {
	m.stop(timer)
	m.armed[timer] = id
	m.add(t, id, false, timer)
}

func (m *refMachine) stop(timer int) {
	if m.armed[timer] >= 0 {
		m.remove(m.armed[timer], false)
		m.armed[timer] = -1
	}
}

func (m *refMachine) kill(lp int) {
	if !m.gone[lp] {
		m.gone[lp] = true
		m.killq = append(m.killq, lp)
	}
}

// advance is LP lp calling its next Advance, or returning.
func (m *refMachine) advance(lp int) {
	if m.step[lp] == modelLPSteps {
		m.gone[lp] = true
		m.p.log = append(m.p.log, modelRec{'x', lp, m.clock})
		return
	}
	m.add(m.clock+m.p.lpDelay(lp, m.step[lp]), lp, true, -1)
}

func (m *refMachine) run() {
	for lp := 0; lp < modelLPs; lp++ {
		m.advance(lp)
	}
	for len(m.pending) > 0 {
		e := m.pending[0]
		m.pending = m.pending[1:]
		if e.key >= 0 {
			m.passedKey[e.key] = true
			if e.id < 0 {
				continue // a reserved key never scheduled: nothing fires
			}
		}
		m.clock = e.t
		m.fired++
		if e.timer >= 0 {
			m.armed[e.timer] = -1
		}
		if e.lp {
			m.p.log = append(m.p.log, modelRec{'w', e.id, m.clock})
			m.step[e.id]++
			m.advance(e.id)
		} else {
			m.p.fire(e.id)
		}
		// Killed LPs unwind once the callback that killed them returns.
		for _, lp := range m.killq {
			m.remove(lp, true)
			m.p.log = append(m.p.log, modelRec{'x', lp, m.clock})
		}
		m.killq = m.killq[:0]
	}
}

// checkAgainstModel runs the program want describes on the reference and
// an identical copy on the real kernel, and compares the dispatch logs and
// the kernel's counters.  It returns how many dispatches the program
// logged (Passed answers aside), how many of the slots that started with
// modelLivesLeft lives retired, and the reserved-key cases it reached.
func checkAgainstModel(t *testing.T, want *modelProg) (dispatches, retiredFull int, cover modelCover) {
	t.Helper()
	got := &modelProg{seed: want.seed, data: want.data, budget: want.budget, keyOf: map[int]int{}}
	want.keyOf = map[int]int{}
	ref := &refMachine{p: want}
	for i := range ref.armed {
		ref.armed[i] = -1
	}
	want.m = ref
	want.setup()
	ref.run()

	m := newRealMachine(got)
	got.setup()
	if err := m.k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got.log) != len(want.log) {
		t.Errorf("kernel dispatched %d records, model %d", len(got.log), len(want.log))
	}
	for i := 0; i < len(got.log) && i < len(want.log); i++ {
		if got.log[i] != want.log[i] {
			t.Fatalf("dispatch %d differs: kernel %c%d at %v, model %c%d at %v", i,
				got.log[i].what, got.log[i].id, got.log[i].t, want.log[i].what, want.log[i].id, want.log[i].t)
		}
	}
	if st := m.k.Stats(); st.Scheduled != ref.seq || st.Fired != ref.fired || st.Cancelled != ref.cancelled {
		t.Errorf("Stats scheduled %d fired %d cancelled %d, model %d, %d and %d",
			st.Scheduled, st.Fired, st.Cancelled, ref.seq, ref.fired, ref.cancelled)
	}
	all, full := m.retired()
	if all == 0 {
		t.Errorf("no slot's generation wrapped")
	}
	for _, r := range want.log {
		if r.what != 'p' && r.what != 'n' {
			dispatches++
		}
	}
	return dispatches, full, got.cover
}

func TestKernelMatchesSortedSliceModel(t *testing.T) {
	var all modelCover
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			n, full, cover := checkAgainstModel(t, &modelProg{seed: seed, budget: modelBudget})
			if n < modelBudget/2 {
				t.Fatalf("the program dispatched only %d records", n)
			}
			if full == 0 {
				t.Errorf("none of the slots with %d lives retired", modelLivesLeft)
			}
			all.belowTail += cover.belowTail
			all.atReserve += cover.atReserve
			all.ownKey += cover.ownKey
			all.passedTrue += cover.passedTrue
			all.runs += cover.runs
			all.splitRuns += cover.splitRuns
			all.runKeys += cover.runKeys
		})
	}
	if all.belowTail == 0 || all.atReserve == 0 || all.ownKey == 0 || all.passedTrue == 0 || all.runs == 0 || all.splitRuns == 0 || all.runKeys == 0 {
		t.Errorf("the seeded programs missed a reserved-key or lane-run case: %+v", all)
	}
	t.Logf("reserved-key and lane-run cases: %+v", all)
}

// FuzzKernelModel is the same check with the program read from the fuzz
// input: one byte per decision, modelBlock bytes per decision stream.
func FuzzKernelModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		checkAgainstModel(t, &modelProg{data: data, budget: modelBudget})
	})
}

// corpusInput reads the named FuzzKernelModel corpus entry.
func corpusInput(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/fuzz/FuzzKernelModel/" + name)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("unexpected corpus file: %q", raw)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(data)
}

// TestFuzzCorpusKillsKills keeps the "kills" corpus entry what its name
// says: decoded under the current op layout, its program kills an LP —
// one exits before its last Advance.
func TestFuzzCorpusKillsKills(t *testing.T) {
	p := &modelProg{data: corpusInput(t, "kills"), budget: modelBudget}
	checkAgainstModel(t, p)
	var wakes [modelLPs]int
	killed := 0
	for _, r := range p.log {
		switch {
		case r.what == 'w':
			wakes[r.id]++
		case r.what == 'x' && wakes[r.id] < modelLPSteps:
			killed++
		}
	}
	if killed == 0 {
		t.Fatalf("no LP was killed in %d records", len(p.log))
	}
}

// TestFuzzCorpusLaneRuns keeps the "lane-runs" corpus entry a seed for the
// lane-run op: its program queues a run as one record, queues one below a
// lane's tail event by event, and schedules an event at a key reserved
// between a run's events.
func TestFuzzCorpusLaneRuns(t *testing.T) {
	_, _, c := checkAgainstModel(t, &modelProg{data: corpusInput(t, "lane-runs"), budget: modelBudget})
	if c.runs == 0 || c.splitRuns == 0 || c.runKeys == 0 {
		t.Fatalf("the program missed a lane-run case: %+v", c)
	}
}

// TestFuzzCorpusReservedKeys keeps the "reserved-keys" corpus entry a
// seed for the reserved-key ops: its program schedules a key below a
// lane's tail, asks Passed at the reserving instant, at an event's own key
// and of a key that has passed.
func TestFuzzCorpusReservedKeys(t *testing.T) {
	_, _, c := checkAgainstModel(t, &modelProg{data: corpusInput(t, "reserved-keys"), budget: modelBudget})
	if c.belowTail == 0 || c.atReserve == 0 || c.ownKey == 0 || c.passedTrue == 0 {
		t.Fatalf("the program missed a reserved-key case: %+v", c)
	}
}
