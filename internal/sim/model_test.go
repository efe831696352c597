package sim

// Model-based test of the kernel's one contract: callbacks and LP wakes
// are dispatched in (t, seq) order, where seq is the order of scheduling.
// Programs of At/After/AtArg/Cancel/Kill/Lane.At run against the real
// kernel and against a reference that keeps every pending event in one
// sorted slice; the two dispatch logs must match record for record.  The
// programs come from a seed (TestKernelMatchesSortedSliceModel) or from
// fuzzer-chosen bytes (FuzzKernelModel, corpus under testdata/fuzz).

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

const (
	modelLanes   = 3
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
}

// modelRec is one dispatch: an event callback ('e'), an LP returning from
// Advance ('w') or an LP exiting ('x').
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

// act performs n random operations; self is the lane of the firing event.
func (p *modelProg) act(r modelDraw, n, self int) {
	for i := 0; i < n; i++ {
		switch op := r.Intn(20); {
		case op < 6 && p.budget > 0:
			id := p.newID(-1)
			p.cancellable = append(p.cancellable, id)
			// Two ticks into the past up to five ahead: clamping and ties.
			p.m.schedule(r.Intn(3), p.m.now()+Time(r.Intn(8)-2), id)
		case op < 15 && p.budget > 0:
			lane := r.Intn(modelLanes)
			if self >= 0 && r.Intn(2) == 0 {
				lane = self // a lane appended to from its own callback
			}
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
		default:
			// Only once Run is dispatching: an LP killed before it first
			// ran never enters its body, so it has nothing to log.
			if len(p.log) > 0 {
				p.m.kill(r.Intn(modelLPs))
			}
		}
	}
}

func (p *modelProg) setup() { p.act(p.rng(-1), 16, -1) }

func (p *modelProg) fire(id int) {
	p.log = append(p.log, modelRec{'e', id, p.m.now()})
	r := p.rng(id)
	p.act(r, 1+r.Intn(3), p.laneOf[id])
}

// lpDelay is how long LP lp sleeps in its step-th Advance.
func (p *modelProg) lpDelay(lp, step int) Time {
	return Time(p.rng(-2 - lp*modelLPSteps - step).Intn(6))
}

// --- the real kernel ------------------------------------------------------

type realMachine struct {
	k     *Kernel
	p     *modelProg
	ids   map[int]EventID
	lanes [modelLanes]*Lane[int]
	lps   [modelLPs]*Proc
}

// modelOldSlots is how many slots the real machine starts with, and
// modelLivesLeft how many lives each has left before its generation
// wraps: a program reuses them, so it runs through slot retirement.
const (
	modelOldSlots  = 8
	modelLivesLeft = 3
)

func newRealMachine(p *modelProg) *realMachine {
	m := &realMachine{k: New(1), p: p, ids: make(map[int]EventID)}
	p.m = m
	for i := int32(0); i < modelOldSlots; i++ {
		m.k.slab = append(m.k.slab, eventSlot{gen: 1<<32 - modelLivesLeft})
		m.k.free = append(m.k.free, i)
	}
	for i := range m.lanes {
		m.lanes[i] = NewLane(m.k, m.fire)
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

// retired counts the slots whose generation wrapped: the kernel took them
// out of use.
func (m *realMachine) retired() int {
	n := 0
	for i := range m.k.slab {
		if s := &m.k.slab[i]; s.gen == 0 && !s.live && !slices.Contains(m.k.free, int32(i)) {
			n++
		}
	}
	return n
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

func (m *realMachine) cancel(id int) { m.k.Cancel(m.ids[id]) }
func (m *realMachine) kill(lp int)   { m.k.Kill(m.lps[lp], nil) }

// --- the reference ----------------------------------------------------------

type refEvent struct {
	t   Time
	seq uint64
	id  int // event id, or the LP for a wake timer
	lp  bool
}

type refMachine struct {
	p       *modelProg
	clock   Time
	seq     uint64
	fired   uint64
	pending []refEvent // sorted by (t, seq)
	step    [modelLPs]int
	gone    [modelLPs]bool // exited or killed
	killq   []int
}

func (m *refMachine) now() Time { return m.clock }

func (m *refMachine) add(t Time, id int, lp bool) {
	if t < m.clock {
		t = m.clock
	}
	m.seq++
	m.pending = append(m.pending, refEvent{t, m.seq, id, lp})
	sort.Slice(m.pending, func(i, j int) bool {
		a, b := m.pending[i], m.pending[j]
		if a.t != b.t {
			return a.t < b.t
		}
		return a.seq < b.seq
	})
}

func (m *refMachine) remove(id int, lp bool) {
	for i, e := range m.pending {
		if e.id == id && e.lp == lp {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return
		}
	}
}

func (m *refMachine) schedule(_ int, t Time, id int) { m.add(t, id, false) }
func (m *refMachine) laneAt(_ int, t Time, id int)   { m.add(t, id, false) }
func (m *refMachine) cancel(id int)                  { m.remove(id, false) }

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
	m.add(m.clock+m.p.lpDelay(lp, m.step[lp]), lp, true)
}

func (m *refMachine) run() {
	for lp := 0; lp < modelLPs; lp++ {
		m.advance(lp)
	}
	for len(m.pending) > 0 {
		e := m.pending[0]
		m.pending = m.pending[1:]
		m.clock = e.t
		m.fired++
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
// the kernel's counters.  It returns how many records the program logged.
func checkAgainstModel(t *testing.T, want *modelProg) int {
	t.Helper()
	got := &modelProg{seed: want.seed, data: want.data, budget: want.budget}
	ref := &refMachine{p: want}
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
	if st := m.k.Stats(); st.Scheduled != ref.seq || st.Fired != ref.fired {
		t.Errorf("Stats scheduled %d fired %d, model %d and %d", st.Scheduled, st.Fired, ref.seq, ref.fired)
	}
	if m.retired() == 0 {
		t.Errorf("no slot's generation wrapped")
	}
	return len(want.log)
}

func TestKernelMatchesSortedSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			if n := checkAgainstModel(t, &modelProg{seed: seed, budget: modelBudget}); n < modelBudget/2 {
				t.Fatalf("the program dispatched only %d records", n)
			}
		})
	}
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
