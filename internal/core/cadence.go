package core

import (
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

// Clock is virtual time: *sim.Kernel for the Vcl scheduler, Host for a rank.
type Clock interface {
	Now() sim.Time
	After(d sim.Time, fn func()) sim.EventID
	Cancel(id sim.EventID) bool
}

// Cadence decides when a protocol's next checkpoint starts and owns its one
// timer.  A tick begins a checkpoint, or emits ckpt-deferred while the last
// is not durable (admission).  A coordinated cadence (Pcl's rank 0, the Vcl
// scheduler) re-arms at Durable, as the paper's do; an independent one at
// every tick (Mlog).
type Cadence struct {
	clock           Clock
	interval, delay sim.Time   // ≤ 0: never ticks; delay: added to the first
	begin           func() int // starts a checkpoint, returns its wave
	hub             *obs.Hub
	rank, wave      int  // wave: the last begun
	coordinated     bool // re-arm at Durable, not at every tick
	pending         bool // the last begun is not durable yet
	timer           sim.EventID
}

// Coordinated ticks interval after Start and after each Durable.
func Coordinated(c Clock, interval sim.Time, begin func() int) *Cadence {
	return &Cadence{clock: c, interval: interval, coordinated: true, begin: begin}
}

// Independent ticks every interval from interval+delay after Start (Mlog).
func Independent(c Clock, hub *obs.Hub, rank int, interval, delay sim.Time, begin func() int) *Cadence {
	return &Cadence{clock: c, interval: interval, delay: delay, begin: begin, hub: hub, rank: rank}
}

// Start arms the first tick; nothing begun before Start is in flight.
func (c *Cadence) Start() {
	c.pending = false
	c.arm(c.interval + c.delay)
}

// Stop cancels the pending tick.
func (c *Cadence) Stop() { c.clock.Cancel(c.timer) }

// Durable reports the last checkpoint begun durable.
func (c *Cadence) Durable() {
	c.pending = false
	if c.coordinated {
		c.arm(c.interval)
	}
}

func (c *Cadence) arm(d sim.Time) {
	if c.interval > 0 {
		c.timer = c.clock.After(d, c.tick)
	}
}

func (c *Cadence) tick() {
	if c.pending {
		c.hub.Emit(obs.Event{Type: obs.EvCkptDeferred, T: c.clock.Now(), Rank: c.rank, Wave: c.wave, Channel: -1, Node: -1, Server: -1})
	} else {
		c.pending = true
		c.wave = c.begin()
	}
	if !c.coordinated {
		c.arm(c.interval)
	}
}
