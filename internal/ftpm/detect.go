package ftpm

import "ftckpt/internal/sim"

// heartbeatBytes is the wire size of one ping or pong.
const heartbeatBytes = 64

// detector is the dispatcher's heartbeat failure detector, replacing the
// paper's instant detection (the killed task's TCP connection breaks
// immediately) with a measurable model: every period the service node
// pings each rank and checkpoint server over the simulated network; live
// components pong back, and a component whose last pong is older than
// the timeout is declared dead.  Detection latency (death → declaration)
// and false suspicions (a live component's round trip exceeding the
// timeout under congestion) become observable model parameters.
type detector struct {
	job *Job
	HeartbeatSpec

	lastRank []sim.Time // last pong per rank
	lastSrv  []sim.Time // last pong per server
	suspRank []bool     // declared dead (until the next relaunch)
	suspSrv  []bool     // declared dead (one-shot per server)
}

func newDetector(job *Job) *detector {
	return &detector{
		job:           job,
		HeartbeatSpec: job.cfg.Heartbeat,

		lastRank: make([]sim.Time, job.cfg.NP),
		lastSrv:  make([]sim.Time, len(job.servers)),
		suspRank: make([]bool, job.cfg.NP),
		suspSrv:  make([]bool, len(job.servers)),
	}
}

// start arms the periodic tick; every component gets a fresh grace
// period from now.
func (d *detector) start() {
	now := d.job.k.Now()
	for i := range d.lastRank {
		d.lastRank[i] = now
	}
	for i := range d.lastSrv {
		d.lastSrv[i] = now
	}
	d.job.k.After(d.Period, d.tick)
}

// resetRanks re-arms rank monitoring after a global relaunch (ranks are
// not monitored while the job is down, so each restart grants a fresh
// grace period).
func (d *detector) resetRanks() {
	now := d.job.k.Now()
	for i := range d.lastRank {
		d.lastRank[i] = now
		d.suspRank[i] = false
	}
}

// resetRank re-arms one rank after a local (message-logging) respawn.
func (d *detector) resetRank(r int) {
	d.lastRank[r] = d.job.k.Now()
	d.suspRank[r] = false
}

// tick is one detector round: sweep for silence, then ping everything
// still believed alive.
func (d *detector) tick() {
	job := d.job
	if job.doneRes {
		return
	}
	now := job.k.Now()
	if job.running {
		for r := range d.lastRank {
			if d.suspRank[r] || job.recovering[r] {
				continue
			}
			if now-d.lastRank[r] > d.Timeout {
				d.suspRank[r] = true
				job.suspectRank(r)
				if !job.running {
					break // a global restart began; monitoring is suspended
				}
			}
		}
	}
	for s := range d.lastSrv {
		if !d.suspSrv[s] && now-d.lastSrv[s] > d.Timeout {
			d.suspSrv[s] = true
			job.suspectServer(s)
		}
	}
	if job.running {
		for r := 0; r < job.cfg.NP; r++ {
			if !d.suspRank[r] && !job.recovering[r] {
				d.pingRank(r)
			}
		}
	}
	for s := range d.lastSrv {
		if !d.suspSrv[s] {
			d.pingServer(s)
		}
	}
	job.k.After(d.Period, d.tick)
}

// pingRank round-trips service node → rank's node → service node; only a
// live incarnation pongs.
func (d *detector) pingRank(r int) {
	job := d.job
	gen := job.gen
	node := job.nodeOfRank(r)
	job.net.StartFlow(job.serviceNode, node, heartbeatBytes, func() {
		pr := job.procs[r]
		if job.gen != gen || pr == nil || pr.down || job.recovering[r] {
			return // died (or was torn down) before the ping arrived
		}
		job.net.StartFlow(node, job.serviceNode, heartbeatBytes, func() {
			if job.gen == gen {
				d.lastRank[r] = job.k.Now()
			}
		})
	})
}

// pingServer is pingRank for a checkpoint server.
func (d *detector) pingServer(s int) {
	job := d.job
	srv := job.servers[s]
	job.net.StartFlow(job.serviceNode, srv.Node, heartbeatBytes, func() {
		if !srv.Alive() {
			return
		}
		job.net.StartFlow(srv.Node, job.serviceNode, heartbeatBytes, func() {
			d.lastSrv[s] = job.k.Now()
		})
	})
}
