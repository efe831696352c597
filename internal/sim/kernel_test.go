package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestAdvanceOrdering(t *testing.T) {
	k := New(1)
	var log []string
	k.Go("a", func(p *Proc) {
		p.Advance(20 * time.Millisecond)
		log = append(log, fmt.Sprintf("a@%v", p.Now()))
	})
	k.Go("b", func(p *Proc) {
		p.Advance(10 * time.Millisecond)
		log = append(log, fmt.Sprintf("b@%v", p.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b@10ms", "a@20ms"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

func TestEventsEqualTimeFIFO(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5*time.Millisecond, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("events out of order: %v", got)
		}
	}
}

func TestTimeNeverGoesBackwards(t *testing.T) {
	k := New(1)
	last := Time(0)
	n := 0
	var fire func()
	fire = func() {
		if k.Now() < last {
			t.Fatalf("time went backwards: %v < %v", k.Now(), last)
		}
		last = k.Now()
		n++
		if n < 100 {
			k.After(Time(n%7)*time.Millisecond, fire)
		}
	}
	k.After(0, fire)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("fired %d times, want 100", n)
	}
}

func TestCancel(t *testing.T) {
	k := New(1)
	fired := false
	id := k.After(time.Second, func() { fired = true })
	k.After(time.Millisecond, func() {
		if !k.Cancel(id) {
			t.Error("Cancel reported false for pending event")
		}
		if k.Cancel(id) {
			t.Error("second Cancel reported true")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if k.Now() != time.Millisecond {
		t.Fatalf("end time %v, want 1ms", k.Now())
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	stage := 0
	var woke []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		k.Go(name, func(p *Proc) {
			for stage == 0 {
				c.Wait(p)
			}
			woke = append(woke, name)
			for stage < 2 {
				c.Wait(p)
			}
			woke = append(woke, name+"'")
		})
	}
	k.Go("sig", func(p *Proc) {
		p.Advance(time.Millisecond)
		stage = 1
		c.Broadcast()
		p.Advance(time.Millisecond)
		stage = 2
		c.Signal()
		c.Signal()
		c.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w1", "w2", "w3", "w1'", "w2'", "w3'"}
	if !reflect.DeepEqual(woke, want) {
		t.Fatalf("wake order %v, want %v", woke, want)
	}
}

func TestKillParkedLP(t *testing.T) {
	k := New(1)
	boom := errors.New("node crash")
	cleanedUp := false
	victim := k.Go("victim", func(p *Proc) {
		defer func() { cleanedUp = true }()
		p.Advance(time.Hour)
		t.Error("victim survived Advance past kill")
	})
	k.After(time.Second, func() { k.Kill(victim, boom) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleanedUp {
		t.Fatal("victim deferred cleanup did not run")
	}
	if victim.Killed() != boom {
		t.Fatalf("Killed() = %v, want %v", victim.Killed(), boom)
	}
	if k.Now() != time.Second {
		t.Fatalf("sim ended at %v, want 1s", k.Now())
	}
}

func TestKillRunnableLPBeforeFirstRun(t *testing.T) {
	k := New(1)
	ran := false
	var victim *Proc
	k.Go("killer", func(p *Proc) {
		k.Kill(victim, nil)
	})
	victim = k.Go("victim", func(p *Proc) { ran = true })
	// The killer LP was spawned first, so it runs first and poisons the
	// victim before the victim's body starts.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("victim body ran despite pre-run kill")
	}
}

// TestKillWhileYielded kills an LP that waits in the run queue behind its
// killer after a Yield.  The Kill queues it a second time; it must unwind
// once, at the Yield, and the stale entry must not run it again.
func TestKillWhileYielded(t *testing.T) {
	k := New(1)
	unwound, resumed := 0, false
	victim := k.Go("victim", func(p *Proc) {
		defer func() { unwound++ }()
		p.Yield()
		resumed = true
	})
	k.Go("killer", func(p *Proc) { k.Kill(victim, nil) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if unwound != 1 || resumed {
		t.Fatalf("victim unwound %d time(s), resumed past Yield = %v; want 1, false", unwound, resumed)
	}
	if victim.Killed() != ErrKilled {
		t.Fatalf("Killed() = %v, want ErrKilled", victim.Killed())
	}
	if k.live != 0 {
		t.Fatalf("%d LP(s) still counted live", k.live)
	}
}

// TestRunLeavesNoGoroutines checks that however Run ends, every LP it leaves
// behind is unwound (deferred functions run once) or released, so the
// process is back to the goroutines it had before.
func TestRunLeavesNoGoroutines(t *testing.T) {
	boom := errors.New("enough")
	// parked spawns one LP parked in a long Advance and one in Cond.Wait.
	parked := func(k *Kernel, unwound *int) {
		c := NewCond(k)
		k.Go("sleeper", func(p *Proc) {
			defer func() { *unwound++ }()
			p.Advance(time.Hour)
		})
		k.Go("waiter", func(p *Proc) {
			defer func() { *unwound++ }()
			for {
				c.Wait(p)
			}
		})
	}
	cases := []struct {
		name    string
		build   func(k *Kernel, unwound *int)
		check   func(err error) bool
		unwound int
	}{
		{"completion", func(k *Kernel, unwound *int) {
			for i := 0; i < 3; i++ {
				k.Go("lp", func(p *Proc) {
					defer func() { *unwound++ }()
					p.Advance(time.Millisecond)
					p.Yield()
				})
			}
		}, func(err error) bool { return err == nil }, 3},
		{"stop", func(k *Kernel, unwound *int) {
			parked(k, unwound)
			k.After(time.Second, func() { k.Stop(boom) })
		}, func(err error) bool { return err == boom }, 2},
		{"deadlock", func(k *Kernel, unwound *int) {
			c := NewCond(k)
			k.Go("stuck", func(p *Proc) {
				defer func() { *unwound++ }()
				c.Wait(p)
			})
		}, func(err error) bool { return errors.Is(err, ErrDeadlock) }, 1},
		{"panic", func(k *Kernel, unwound *int) {
			parked(k, unwound)
			k.Go("bad", func(p *Proc) {
				p.Advance(time.Second)
				panic("kaboom")
			})
		}, func(err error) bool { return err != nil && !errors.Is(err, ErrDeadlock) }, 2},
		{"never run", func(k *Kernel, unwound *int) {
			k.After(time.Second, func() {
				k.Go("late", func(p *Proc) {
					defer func() { *unwound++ }()
					t.Error("LP spawned in the stopping step ran")
				})
				k.Stop(boom)
			})
		}, func(err error) bool { return err == boom }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := New(1)
			unwound := 0
			tc.build(k, &unwound)
			if err := k.Run(); !tc.check(err) {
				t.Fatalf("Run returned %v", err)
			}
			if unwound != tc.unwound {
				t.Fatalf("%d LP(s) unwound, want %d", unwound, tc.unwound)
			}
			// More, not different: a goroutine of an earlier test may
			// still be exiting when the baseline is taken.
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines after Run, %d before", after, before)
			}
		})
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	k.Go("stuck", func(p *Proc) { c.Wait(p) })
	err := k.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestStop(t *testing.T) {
	k := New(1)
	stopErr := errors.New("enough")
	k.Go("a", func(p *Proc) {
		for i := 0; ; i++ {
			p.Advance(time.Second)
			if i == 4 {
				k.Stop(stopErr)
			}
		}
	})
	if err := k.Run(); err != stopErr {
		t.Fatalf("err = %v, want %v", err, stopErr)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("stopped at %v, want 5s", k.Now())
	}
}

func TestSpawnFromLP(t *testing.T) {
	k := New(1)
	var order []string
	k.Go("parent", func(p *Proc) {
		order = append(order, "parent")
		k.Go("child", func(c *Proc) {
			order = append(order, "child")
			c.Advance(time.Millisecond)
			order = append(order, "child-done")
		})
		p.Advance(2 * time.Millisecond)
		order = append(order, "parent-done")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"parent", "child", "child-done", "parent-done"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

func TestYieldFairness(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Go(fmt.Sprintf("lp%d", i), func(p *Proc) {
			for round := 0; round < 2; round++ {
				order = append(order, i)
				p.Yield()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

func TestLPPanicPropagates(t *testing.T) {
	k := New(1)
	k.Go("bad", func(p *Proc) { panic("kaboom") })
	err := k.Run()
	if err == nil {
		t.Fatal("Run returned nil for panicking LP")
	}
}

func TestRunTwice(t *testing.T) {
	k := New(1)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err == nil {
		t.Fatal("second Run did not error")
	}
}

// runSchedule runs a randomized simulation derived from seed and returns a
// trace of (time, lp, step) tuples.
func runSchedule(seed int64, lps, steps int) []string {
	k := New(seed)
	rng := rand.New(rand.NewSource(seed))
	delays := make([][]Time, lps)
	for i := range delays {
		delays[i] = make([]Time, steps)
		for j := range delays[i] {
			delays[i][j] = Time(rng.Intn(50)) * time.Millisecond
		}
	}
	var trace []string
	for i := 0; i < lps; i++ {
		i := i
		k.Go(fmt.Sprintf("lp%d", i), func(p *Proc) {
			for j := 0; j < steps; j++ {
				p.Advance(delays[i][j])
				trace = append(trace, fmt.Sprintf("%d/%d@%v", i, j, p.Now()))
			}
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return trace
}

// TestDeterminism checks that identical programs produce identical traces —
// the property every experiment in this repository relies on.
func TestDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		a := runSchedule(seed, 5, 8)
		b := runSchedule(seed, 5, 8)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceMonotone checks that the per-LP step order and global time
// monotonicity hold for arbitrary schedules.
func TestTraceMonotone(t *testing.T) {
	f := func(seed int64) bool {
		trace := runSchedule(seed, 4, 6)
		var last Time
		for _, e := range trace {
			var lp, step int
			var at time.Duration
			var rest string
			if _, err := fmt.Sscanf(e, "%d/%d@%s", &lp, &step, &rest); err != nil {
				return false
			}
			at, err := time.ParseDuration(rest)
			if err != nil {
				return false
			}
			if at < last {
				return false
			}
			last = at
		}
		return len(trace) == 4*6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelChurn schedules/cancels heavy churn over a small slab with the
// corpses concentrated at the heap head: long-lived anchor events hold the
// tail while every round schedules a batch of earlier events and cancels
// most of them.  It fails on a stale-EventID double-fire, a cancelled event
// firing, a lost event, or a cancelled event left in the heap.
func TestCancelChurn(t *testing.T) {
	k := New(7)
	const (
		rounds = 200
		batch  = 64
	)
	fireCount := map[int]int{}
	cancelled := map[int]bool{}
	fire := func(a any) { fireCount[a.(int)]++ }
	next := 0
	k.Go("churn", func(p *Proc) {
		for i := 0; i < batch; i++ {
			k.AfterArg(time.Hour+Time(i)*time.Second, fire, next) // anchors
			next++
		}
		ids := make([]EventID, 0, batch)
		tags := make([]int, 0, batch)
		for r := 0; r < rounds; r++ {
			ids, tags = ids[:0], tags[:0]
			for i := 0; i < batch; i++ {
				ids = append(ids, k.AfterArg(Time(i+1)*time.Millisecond, fire, next))
				tags = append(tags, next)
				next++
			}
			// All earlier than the anchors, so the cancels hit the heap
			// head.
			for i := 0; i < batch*9/10; i++ {
				if k.Cancel(ids[i]) {
					cancelled[tags[i]] = true
				}
			}
			// Cancel unlinks at once: the heap holds the anchors and this
			// round's survivors, nothing else.
			if n, live := len(k.heap), 2*batch-batch*9/10; n != live {
				t.Fatalf("round %d: %d events in the heap, %d live", r, n, live)
			}
			p.Advance(100 * time.Millisecond)
		}
		p.Advance(2 * time.Hour) // anchors fire
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for tag := 0; tag < next; tag++ {
		switch n := fireCount[tag]; {
		case cancelled[tag] && n != 0:
			t.Fatalf("cancelled event %d fired %d times", tag, n)
		case !cancelled[tag] && n != 1:
			t.Fatalf("event %d fired %d times, want 1", tag, n)
		}
	}
}

// TestGenWraparoundRetiresSlot pins the ABA fix: when a slot's generation
// counter wraps to zero the slot must be retired, never recycled, so an
// EventID from 2^32 lives ago cannot cancel (or double-fire through) a
// future occupant.
func TestGenWraparoundRetiresSlot(t *testing.T) {
	k := New(1)
	fired := false
	id := k.After(0, func() { fired = true })
	idx, _ := id.split()
	k.slab[idx].gen = ^uint32(0) // as if recycled 2^32-1 times
	stale := makeEventID(idx, ^uint32(0))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event did not fire")
	}
	if k.slab[idx].gen != 0 {
		t.Fatalf("gen = %d, want wrapped to 0", k.slab[idx].gen)
	}
	for _, f := range k.free {
		if f == idx {
			t.Fatal("wrapped slot returned to the free list")
		}
	}
	if k.Cancel(stale) {
		t.Fatal("stale EventID cancelled through a generation wrap")
	}
}

// TestEventSlotSize pins the slab's stride: a slot is one cache line.
func TestEventSlotSize(t *testing.T) {
	// 24 bytes of t, seq, gen and pos, then five words (fn, argFn, arg's
	// two, proc): 64 bytes on a 64-bit platform.
	if n, want := unsafe.Sizeof(eventSlot{}), 24+5*unsafe.Sizeof(uintptr(0)); n != want {
		t.Fatalf("eventSlot is %d bytes, want %d", n, want)
	}
}
