package core

import (
	"fmt"
	"testing"
	"time"

	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

const ms = time.Millisecond

// drive runs a cadence on a bare kernel: every checkpoint it begins is
// recorded and reported durable store later (never if store < 0).
type drive struct {
	k      *sim.Kernel
	col    obs.Collector
	c      *Cadence
	store  sim.Time
	begins []sim.Time
}

func (d *drive) begin() int {
	d.begins = append(d.begins, d.k.Now())
	if d.store >= 0 {
		d.k.After(d.store, d.c.Durable)
	}
	return len(d.begins)
}

func coordinated(interval, store sim.Time) *drive {
	d := &drive{k: sim.New(1), store: store}
	d.c = Coordinated(d.k, interval, d.begin)
	return d
}

func independent(interval, delay, store sim.Time) *drive {
	d := &drive{k: sim.New(1), store: store}
	d.c = Independent(d.k, obs.NewHub(&d.col), 3, interval, delay, d.begin)
	return d
}

// run starts the cadence, stops it at stop and runs the kernel dry: no
// tick may begin or defer a checkpoint after Stop.
func (d *drive) run(t *testing.T, stop sim.Time) {
	t.Helper()
	d.c.Start()
	d.k.At(stop, d.c.Stop)
	if err := d.k.Run(); err != nil {
		t.Fatal(err)
	}
	last := sim.Time(0)
	if n := len(d.begins); n > 0 {
		last = d.begins[n-1]
	}
	if evs := d.col.Events(); len(evs) > 0 {
		last = max(last, evs[len(evs)-1].T)
	}
	if last >= stop {
		t.Errorf("a tick at %v, after Stop at %v", last, stop)
	}
}

func (d *drive) check(t *testing.T, want string) {
	t.Helper()
	if got := fmt.Sprint(d.begins); got != want {
		t.Errorf("checkpoints began at %s, want %s", got, want)
	}
}

// TestCadenceCoordinatedRearmsAtDurable: the next wave starts interval
// after the last one is durable, not interval after it started.
func TestCadenceCoordinatedRearmsAtDurable(t *testing.T) {
	d := coordinated(10*ms, 3*ms)
	d.run(t, 55*ms) // Stop cancels the tick armed at 52 ms for 62 ms
	d.check(t, "[10ms 23ms 36ms 49ms]")
}

// TestCadenceIndependentTicksEveryInterval: ticks from interval+delay on,
// whenever the images are durable.
func TestCadenceIndependentTicksEveryInterval(t *testing.T) {
	d := independent(10*ms, 4*ms, 3*ms)
	d.run(t, 50*ms)
	d.check(t, "[14ms 24ms 34ms 44ms]")
	if n := len(d.col.Events()); n != 0 {
		t.Errorf("%d events with every image durable in 3 ms, want none", n)
	}
}

// TestCadenceDefersWhileNotDurable: a tick that finds the last image in
// flight emits one ckpt-deferred naming that image's wave, and begins
// nothing.
func TestCadenceDefersWhileNotDurable(t *testing.T) {
	d := independent(10*ms, 0, 25*ms)
	d.run(t, 55*ms)
	d.check(t, "[10ms 40ms]") // durable at 35 and 65 ms
	var got []string
	for _, ev := range d.col.Events() {
		if ev.Type != obs.EvCkptDeferred || ev.Rank != 3 {
			t.Errorf("unexpected event %+v", ev)
		}
		got = append(got, fmt.Sprintf("%v:w%d", ev.T, ev.Wave))
	}
	if fmt.Sprint(got) != "[20ms:w1 30ms:w1 50ms:w2]" {
		t.Errorf("deferred ticks %v, want [20ms:w1 30ms:w1 50ms:w2]", got)
	}
}

// TestCadenceStopLeavesNothing: a cadence stopped before its first tick,
// or stopped twice, fires nothing.
func TestCadenceStopLeavesNothing(t *testing.T) {
	for _, d := range []*drive{coordinated(10*ms, 0), independent(10*ms, 5*ms, 0)} {
		d.c.Start()
		d.c.Stop()
		d.c.Stop()
		if err := d.k.Run(); err != nil {
			t.Fatal(err)
		}
		d.check(t, "[]")
		if st := d.k.Stats(); st.Fired != 0 || st.Cancelled != 1 {
			t.Errorf("kernel %+v, want one event cancelled and none fired", st)
		}
	}
}

// TestCadenceStartClearsPending: a restarted process's first tick is
// admitted although the image its previous life began never became
// durable.
func TestCadenceStartClearsPending(t *testing.T) {
	d := independent(10*ms, 0, -1)
	d.k.At(15*ms, func() {
		d.c.Stop()
		d.c.Start()
	})
	d.run(t, 30*ms)
	d.check(t, "[10ms 25ms]")
}

// TestCadenceNonPositiveIntervalNeverArms: interval 0 (checkpointing off)
// or below arms nothing, at Start or at Durable.
func TestCadenceNonPositiveIntervalNeverArms(t *testing.T) {
	for _, d := range []*drive{coordinated(0, 0), independent(-ms, 5*ms, 0)} {
		d.c.Start()
		d.c.Durable()
		d.c.Stop()
		if err := d.k.Run(); err != nil {
			t.Fatal(err)
		}
		d.check(t, "[]")
		if st := d.k.Stats(); st.Scheduled != 0 {
			t.Errorf("kernel %+v, want nothing scheduled", st)
		}
	}
}
