package ftpm

import (
	"errors"
	"fmt"
	"slices"

	"ftckpt/internal/ckpt"
	"ftckpt/internal/core"
	"ftckpt/internal/core/mlog"
	"ftckpt/internal/core/pcl"
	"ftckpt/internal/core/vcl"
	"ftckpt/internal/failure"
	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
	"ftckpt/internal/span"
)

// Job is one running MPI job under the fault tolerant process manager.
type Job struct {
	cfg Config
	k   *sim.Kernel
	net *simnet.Network
	fab *mpi.Fabric

	computeNodes int
	serviceNode  int
	servers      []*ckpt.Server
	group        *ckpt.Group
	store        *ckpt.Hierarchy
	det          *detector
	scheduler    *vcl.Scheduler
	procs        []*procRun
	nodeMap      []int // current rank→node mapping (changes on node loss)
	spares       []int
	deadNodes    map[int]bool
	nodeKilled   map[int]bool // machines killed by node-kill events

	gen          int
	running      bool
	finished     int
	finishedRank []bool

	lastWave   int
	rankWave   []int // per-rank recovery lines (uncoordinated protocols)
	recovering []bool

	// In-job (ULFM) repair window state; see repair.go.
	repairing     bool
	repGen        int      // invalidates in-flight agreement rounds
	repairVictim  int      // rank being repaired
	repairParkedN int      // survivors parked in AwaitRepair
	repairLevel   int      // agreed application snapshot level
	repairT0      sim.Time // window open time (lost-work baseline)
	repairSpan    uint64   // EvRepairBegin span, closed by End/Abort
	repairSkip    bool     // an aborted repair's fallback must not re-enter
	lostWork      sim.Time

	degraded bool

	hub *obs.Hub
	// met is the run's one ledger, always the job's own: the MetricsSink
	// folds the event stream into it and procFinished reads Result off
	// it.  Config.Metrics receives it by Merge when Run returns.
	met     *obs.Metrics
	spans   *span.Builder
	res     Result
	doneRes bool

	// Causal-span bookkeeping for the failure → detection → rollback →
	// replay cause chain.
	deathSpan    []uint64 // per-rank EvComponentDead span (heartbeat mode)
	detectSpan   []uint64 // per-rank EvHeartbeatTimeout span, consumed by detectedRank
	restartSpan  []uint64 // per-rank local-restart span (mlog)
	srvKillSpan  []uint64 // per-server EvServerKilled span
	lastKillSpan uint64   // most recent global EvRankKilled span
}

// Run executes the job described by cfg and returns its result.
func Run(cfg Config) (Result, error) {
	job, err := NewJob(cfg)
	if err != nil {
		return Result{}, err
	}
	return job.Run()
}

// NewJob validates cfg and builds the platform, servers and scheduler.
func NewJob(cfg Config) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	job := &Job{cfg: cfg, k: sim.New(cfg.Seed), met: obs.NewMetrics()}
	sinks := []obs.Sink{obs.NewMetricsSink(job.met)}
	if cfg.Attrib {
		job.spans = span.NewBuilder(cfg.NP, string(cfg.Protocol))
		sinks = append(sinks, job.spans)
	}
	job.hub = obs.NewHub(append(sinks, cfg.Sink)...)
	job.net = simnet.New(job.k, cfg.Topology)
	job.net.SetMetrics(job.met)
	job.fab = mpi.NewFabric(job.net)
	job.fab.SetMetrics(job.met)
	job.computeNodes = (cfg.NP + cfg.ProcsPerNode - 1) / cfg.ProcsPerNode
	nServers := cfg.servers()
	switch {
	case cfg.ServiceNode > 0:
		job.serviceNode = cfg.ServiceNode
	case cfg.Placement != nil:
		job.serviceNode = cfg.Topology.TotalNodes() - 1
	default:
		job.serviceNode = job.computeNodes + nServers
	}
	for i := 0; i < nServers; i++ {
		node := job.computeNodes + i
		if cfg.ServerNodes != nil {
			node = cfg.ServerNodes[i]
		}
		s := ckpt.NewServer(job.net, i, node)
		s.SetObs(job.hub)
		job.servers = append(job.servers, s)
	}
	if cfg.Storage != nil {
		srv := cfg.Storage.ServersLevel()
		job.group = ckpt.NewGroup(job.net, job.servers, srv.Replicas, srv.WriteQuorum, cfg.ServerOf)
		job.group.MaxRetries = srv.StoreRetries
		job.group.Backoff = srv.RetryBackoff
		// Every job writes through the storage hierarchy; a spec with only
		// the servers level degenerates to the bare server group.  Mlog
		// drops the staging levels: its per-rank recovery fetches
		// image+log unions from the group the moment a failure is
		// detected, which an asynchronous drain cannot honor.
		spec := *cfg.Storage
		if cfg.Protocol == ProtoMlog {
			spec = *spec.WithoutStaging()
		}
		var pfsNodes []int
		if i := spec.Level(ckpt.LevelPFS); i >= 0 {
			// PFS targets live on the last nodes, after compute, servers,
			// the service node and the spares.
			for t := 0; t < spec.Levels[i].Targets; t++ {
				pfsNodes = append(pfsNodes, job.serviceNode+cfg.Spares+1+t)
			}
		}
		job.store = ckpt.NewHierarchy(job.net, spec, job.group, pfsNodes)
		job.store.SetObs(job.hub)
	}
	job.nodeMap = make([]int, cfg.NP)
	job.deadNodes = map[int]bool{}
	job.nodeKilled = map[int]bool{}
	job.deathSpan = make([]uint64, cfg.NP)
	job.detectSpan = make([]uint64, cfg.NP)
	job.restartSpan = make([]uint64, cfg.NP)
	job.srvKillSpan = make([]uint64, nServers)
	for r := 0; r < cfg.NP; r++ {
		if cfg.Placement != nil {
			job.nodeMap[r] = cfg.Placement(r)
		} else {
			job.nodeMap[r] = r / cfg.ProcsPerNode
		}
		job.fab.Place(r, job.nodeMap[r])
	}
	for i := 0; i < cfg.Spares; i++ {
		job.spares = append(job.spares, job.serviceNode+1+i)
	}
	job.procs = make([]*procRun, cfg.NP)
	job.rankWave = make([]int, cfg.NP)
	job.recovering = make([]bool, cfg.NP)
	if cfg.Protocol == ProtoVcl {
		job.scheduler = vcl.NewScheduler(job.k, job.fab, cfg.NP, job.serviceNode, cfg.Interval)
		job.scheduler.OnCommit = job.commitWave
		job.scheduler.Obs = job.hub
	}
	return job, nil
}

// Kernel exposes the simulation kernel (for tests injecting extra events).
func (job *Job) Kernel() *sim.Kernel { return job.k }

// Programs returns the final program state of every rank (valid after Run
// returns successfully) — the analogue of inspecting each process's result
// after MPI_Finalize.
func (job *Job) Programs() []mpi.Program {
	out := make([]mpi.Program, job.cfg.NP)
	for r, pr := range job.procs {
		if pr != nil {
			out[r] = pr.prog
		}
	}
	return out
}

// Run launches the job and runs the simulation to completion.
func (job *Job) Run() (Result, error) {
	for _, ev := range job.cfg.Failures.Sorted() {
		ev := ev
		job.k.At(ev.At, func() { job.inject(ev) })
	}
	job.failEvery(job.cfg.MTTF, 1, job.cfg.NP, job.injectRankKill)
	job.failEvery(job.cfg.ServerMTTF, 2, len(job.servers), job.injectServerKill)
	job.failEvery(job.cfg.NodeMTTF, 3, job.computeNodes, job.injectNodeKill)
	if job.cfg.Deadline > 0 {
		job.k.At(job.cfg.Deadline, func() {
			job.k.Stop(fmt.Errorf("ftpm: deadline %v exceeded", job.cfg.Deadline))
		})
	}
	if job.cfg.Heartbeat.Period > 0 {
		job.det = newDetector(job)
	}
	if job.cfg.MetricsSnapshot > 0 {
		job.scheduleSnapshot()
	}
	job.launch(0)
	if job.det != nil {
		job.det.start()
	}
	err := job.k.Run()
	if err == nil && !job.doneRes {
		err = errors.New("ftpm: simulation ended before job completion")
	}
	// Even a failed run keeps its metrics reachable: degraded stops,
	// detection latencies and failover counts are exactly what the
	// caller wants to inspect after an unrecoverable loss.
	res := job.res // zero unless the job completed
	res.Metrics = job.met
	if job.cfg.Metrics != nil {
		job.cfg.Metrics.Merge(job.met)
		res.Metrics = job.cfg.Metrics
	}
	return res, err
}

func (job *Job) nodeOfRank(r int) int { return job.nodeMap[r] }

// loseNode removes a machine from the pool and remaps its ranks onto a
// spare node, or overbooks surviving compute nodes when no spare remains.
// It returns the ranks that were running on the lost node; ok is false
// when there is nothing left to remap onto — the job has already stopped
// in degraded mode and the caller must not restart anything.
func (job *Job) loseNode(node int) (victims []int, ok bool) {
	job.deadNodes[node] = true
	for r, n := range job.nodeMap {
		if n == node {
			victims = append(victims, r)
		}
	}
	var target int
	if len(job.spares) > 0 {
		target = job.spares[0]
		job.spares = job.spares[1:]
	} else {
		// Overbook: reuse the next surviving compute node.
		target = -1
		for n := 0; n < job.computeNodes; n++ {
			if !job.deadNodes[n] {
				target = n
				break
			}
		}
		if target < 0 {
			job.degrade(&DegradedError{
				Reason: "every compute node lost and no spare remains",
				Rank:   -1, Wave: job.lastWave, Server: -1, Node: node,
			})
			return victims, false
		}
	}
	job.emit(obs.Event{Type: obs.EvNodeLost, Rank: -1, Wave: -1, Channel: -1, Node: node, Server: -1})
	for _, r := range victims {
		job.nodeMap[r] = target
		job.fab.Place(r, target)
	}
	return victims, true
}

// degrade stops the job in degraded mode: the loss is unrecoverable, so
// the runtime shuts down cleanly through the kernel with a structured
// error instead of panicking.
func (job *Job) degrade(err *DegradedError) {
	if job.degraded {
		return // the first unrecoverable loss already stopped the job
	}
	job.degraded = true
	if err.Collective == "" {
		// Name the collective the survivors are blocked inside (the
		// paper's mid-collective failure scenario): the first in-flight
		// operation kind found, with every rank caught in that kind.
		var kind mpi.CollKind
		for _, pr := range job.procs {
			if pr == nil || pr.down || pr.eng == nil {
				continue
			}
			k := pr.eng.InFlightColl()
			if k == mpi.CollNone {
				continue
			}
			if kind == mpi.CollNone {
				kind = k
			}
			if k == kind {
				err.Ranks = append(err.Ranks, pr.rank)
			}
		}
		if kind != mpi.CollNone {
			err.Collective = kind.String()
		}
	}
	job.emit(obs.Event{Type: obs.EvDegraded, Rank: err.Rank, Wave: err.Wave,
		Channel: -1, Node: err.Node, Server: err.Server})
	job.running = false
	job.k.Stop(err)
}

// emit stamps ev with the current virtual time and publishes it to the
// job's hub.
func (job *Job) emit(ev obs.Event) {
	ev.T = job.k.Now()
	job.hub.Emit(ev)
}

// failEvery starts one memoryless failure process when mttf > 0: an
// exponential source seeded Seed+seedOffset draws a delay and one of n
// victims, kill takes the victim, and the next draw follows, until the
// job completes.
func (job *Job) failEvery(mttf sim.Time, seedOffset int64, n int, kill func(int)) {
	if mttf <= 0 {
		return
	}
	src := failure.NewExponential(mttf, job.cfg.Seed+seedOffset)
	var next func()
	next = func() {
		d, victim := src.Next(n)
		job.k.After(d, func() {
			if job.doneRes {
				return
			}
			kill(victim)
			next()
		})
	}
	next()
}

// inject routes one scripted failure event to its kill path.  Validate
// has checked that the victim exists and, for buffer and PFS kills, that
// Storage (and so job.store) does.
func (job *Job) inject(ev failure.Event) {
	if job.doneRes {
		return
	}
	switch ev.Kind {
	case failure.KindServer:
		job.injectServerKill(ev.Server)
	case failure.KindNode:
		job.injectNodeKill(ev.Node)
	case failure.KindBuffer:
		job.store.KillBuffer(ev.Node)
	case failure.KindPFS:
		job.store.KillPFSTarget(ev.Server)
	default:
		job.injectRankKill(ev.Rank)
	}
}

// injectRankKill kills one MPI task.  With instant detection (the
// paper's model) recovery begins immediately; in heartbeat mode the task
// just goes silent and the detector finds it.  Kills while the job is
// already down (mid-restart) are no-ops.
func (job *Job) injectRankKill(rank int) {
	if !job.running {
		return
	}
	if job.det != nil {
		job.silentKill(rank)
		return
	}
	job.detectedRank(rank)
}

// injectServerKill fails a checkpoint server: its data is lost, every
// transfer touching it aborts (stores retry elsewhere, fetches fail
// over).  The dispatcher needs no immediate action — consequences
// surface through the abort callbacks, and in heartbeat mode the
// detector additionally measures how long the silence takes to notice.
func (job *Job) injectServerKill(s int) {
	srv := job.servers[s]
	if !srv.Alive() {
		return
	}
	job.srvKillSpan[s] = job.hub.NextSpan()
	job.emit(obs.Event{Type: obs.EvServerKilled, Rank: -1, Wave: -1, Channel: -1,
		Node: srv.Node, Server: s, Span: job.srvKillSpan[s]})
	srv.Kill()
}

// injectNodeKill fails a whole machine: any checkpoint server it hosts
// dies with it, a spare slot it provided is gone, and every rank on it
// is killed (instant mode: one node-loss recovery; heartbeat mode: they
// go silent and detection triggers the node-loss path).
func (job *Job) injectNodeKill(node int) {
	if job.nodeKilled[node] {
		return
	}
	job.nodeKilled[node] = true
	for i, sp := range job.spares {
		if sp == node {
			job.spares = append(job.spares[:i], job.spares[i+1:]...)
			break
		}
	}
	for _, srv := range job.servers {
		if srv.Node == node {
			job.injectServerKill(srv.Index)
		}
	}
	if job.store != nil {
		// The machine's staging buffer (and anything draining out of it)
		// dies with the machine.
		job.store.KillBuffer(node)
	}
	var victims []int
	for r, n := range job.nodeMap {
		if n == node {
			victims = append(victims, r)
		}
	}
	if len(victims) == 0 {
		job.deadNodes[node] = true // spare or server-only machine
		return
	}
	if !job.running {
		// Mid-restart: the procs are already down; just remap so the
		// pending relaunch lands on live machines.
		job.loseNode(node)
		return
	}
	if job.det != nil {
		for _, v := range victims {
			job.silentKill(v)
		}
		return
	}
	job.detectedRank(victims[0])
}

// silentKill tears the rank down without telling the dispatcher —
// heartbeat mode's death model.  The process stops computing and
// communicating; peers' packets to it are dropped like a dead host's,
// and recovery starts only when the detector declares the silence.
func (job *Job) silentKill(rank int) {
	pr := job.procs[rank]
	if pr == nil || pr.down || job.recovering[rank] {
		return
	}
	job.deathSpan[rank] = job.hub.NextSpan()
	job.emit(obs.Event{Type: obs.EvComponentDead, Rank: rank, Wave: job.lastWave, Channel: -1,
		Node: job.nodeMap[rank], Server: -1, Span: job.deathSpan[rank]})
	pr.teardown()
}

// suspectRank handles the detector declaring a rank dead — a detection
// whose Cause is the death, or a false suspicion without one (the
// dispatcher kills and restarts either way, which is what a real one does
// when it closes a live task's connection) — then runs the recovery path.
func (job *Job) suspectRank(r int) {
	pr := job.procs[r]
	job.detectSpan[r] = job.hub.NextSpan()
	if pr == nil || pr.down {
		job.emit(obs.Event{Type: obs.EvHeartbeatTimeout, Rank: r, Wave: -1, Channel: -1,
			Node: job.nodeMap[r], Server: -1, Span: job.detectSpan[r], Cause: job.deathSpan[r]})
	} else {
		job.emit(obs.Event{Type: obs.EvHeartbeatTimeout, Rank: r, Wave: -1, Channel: -1,
			Node: job.nodeMap[r], Server: -1, Span: job.detectSpan[r]})
	}
	job.detectedRank(r)
}

// suspectServer handles the detector declaring a checkpoint server
// dead.  Detection is observational for servers: stores and fetches
// already discovered the death through their aborted transfers.
func (job *Job) suspectServer(s int) {
	srv := job.servers[s]
	if !srv.Alive() {
		job.emit(obs.Event{Type: obs.EvHeartbeatTimeout, Rank: -1, Wave: -1, Channel: -1,
			Node: srv.Node, Server: s, Span: job.hub.NextSpan(), Cause: job.srvKillSpan[s]})
	} else {
		job.emit(obs.Event{Type: obs.EvHeartbeatTimeout, Rank: -1, Wave: -1, Channel: -1,
			Node: srv.Node, Server: s, Span: job.hub.NextSpan()})
	}
}

// scheduleSnapshot arms the recurring metrics-snapshot timer: every
// MetricsSnapshot it emits one EvCounterSample per counter the ledger
// samples (obs.Metrics.Sample), which the trace exporter renders as
// Perfetto counter tracks.
func (job *Job) scheduleSnapshot() {
	job.k.After(job.cfg.MetricsSnapshot, func() {
		if job.doneRes {
			return
		}
		job.met.Sample(func(name string, v int64) {
			job.emit(obs.Event{Type: obs.EvCounterSample, Rank: -1, Wave: -1, Channel: -1,
				Node: -1, Server: -1, Bytes: v, Detail: name})
		})
		job.scheduleSnapshot()
	})
}

// launch starts every process, fresh (wave 0) or restored from wave.
func (job *Job) launch(wave int) {
	job.finished = 0
	job.finishedRank = make([]bool, job.cfg.NP)
	restarting := job.gen > 0
	if restarting && job.store != nil {
		// The restored address spaces diverge from the pre-failure run,
		// so every rank's next image must be full again.
		job.store.ResetChains()
	}
	if wave == 0 {
		var rs uint64
		if restarting {
			rs = job.hub.NextSpan()
			job.emit(obs.Event{Type: obs.EvRestartBegin, Rank: -1, Wave: 0, Channel: -1, Node: -1, Server: -1,
				Span: rs, Cause: job.lastKillSpan})
		}
		for r := 0; r < job.cfg.NP; r++ {
			job.spawn(r, nil)
		}
		job.startSchedulers()
		if restarting {
			job.emit(obs.Event{Type: obs.EvRestartEnd, Rank: -1, Wave: 0, Channel: -1, Node: -1, Server: -1, Span: rs})
		}
		return
	}
	// Restart: fetch every image (in parallel, contending for server
	// NICs), then start all processes together so every engine is bound
	// before the first re-execution message flies.
	rs := job.hub.NextSpan()
	job.emit(obs.Event{Type: obs.EvRestartBegin, Rank: -1, Wave: wave, Channel: -1, Node: -1, Server: -1,
		Span: rs, Cause: job.lastKillSpan})
	pending := make([]*restartState, job.cfg.NP)
	remaining := job.cfg.NP
	gen := job.gen
	needLogs := job.cfg.Protocol == ProtoVcl
	fetch := func(r int, onDone func(*ckpt.Image, []*mpi.Packet), onFail func(error)) {
		job.store.Fetch(r, wave, job.nodeOfRank(r), needLogs, onDone, onFail)
	}
	live := func() bool { return job.gen == gen && !job.doneRes }
	restore := func(r int, st *restartState) {
		pending[r] = st
		remaining--
		if remaining == 0 {
			for q := 0; q < job.cfg.NP; q++ {
				job.spawn(q, pending[q])
			}
			job.startSchedulers()
			job.emit(obs.Event{Type: obs.EvRestartEnd, Rank: -1, Wave: wave, Channel: -1, Node: -1, Server: -1, Span: rs})
		}
	}
	for r := 0; r < job.cfg.NP; r++ {
		job.fetchCommitted(r, wave, 0, fetch, live, restore)
	}
}

// fetchCommitted fetches rank's committed image of wave for a restart and
// hands restore what it read out of it (readImage).  A failed fetch is
// retried up to the servers level's StoreRetries times, RetryBackoff
// apart — copies may still be in flight towards surviving replicas — and
// then stops the job in degraded mode.  live is asked before every step, so a fetch overtaken by a newer
// restart or by job completion does nothing.
func (job *Job) fetchCommitted(rank, wave, attempt int,
	fetch func(rank int, onDone func(*ckpt.Image, []*mpi.Packet), onFail func(error)),
	live func() bool, restore func(rank int, st *restartState)) {
	fetch(rank, func(img *ckpt.Image, logs []*mpi.Packet) {
		if live() {
			restore(rank, readImage(rank, wave, img, logs))
		}
	}, func(err error) {
		if !live() {
			return
		}
		if attempt < job.group.MaxRetries {
			job.k.After(job.group.Backoff, func() {
				if live() {
					job.fetchCommitted(rank, wave, attempt+1, fetch, live, restore)
				}
			})
			return
		}
		job.degrade(&DegradedError{
			Reason: "committed checkpoint unrecoverable: every replica of the image is gone",
			Rank:   rank, Wave: wave, Server: -1, Node: -1, Err: err,
		})
	})
}

func (job *Job) startSchedulers() {
	job.running = true
	if job.det != nil {
		job.det.resetRanks()
	}
	if job.scheduler != nil {
		job.scheduler.Start(job.lastWave)
	}
}

// restartState is what a restarted incarnation starts from: the program,
// engine and device state read out of its image, and the messages to
// replay.  A nil *restartState is a fresh start.
type restartState struct {
	prog   mpi.Program // nil: a fresh program (a replay-only restart)
	engine *mpi.EngineImage
	device []byte
	done   bool
	replay []*mpi.Packet
}

// readImage decodes a fetched image inside the fetch's callback: the
// storage hierarchy recycles the record once no level holds it, which may
// be as soon as the callback returns, so nothing keeps the record itself.
// A record that is not (rank, wave) was recycled while held, and restoring
// from it would run another capture's state.
func readImage(rank, wave int, img *ckpt.Image, logs []*mpi.Packet) *restartState {
	if img.Rank != rank || img.Wave != wave {
		panic(fmt.Sprintf("ftpm: rank %d restores from image rank %d wave %d, want wave %d", rank, img.Rank, img.Wave, wave))
	}
	prog, err := ckpt.DecodeProgram(img.App)
	if err != nil {
		panic(fmt.Sprintf("ftpm: rank %d: %v", rank, err))
	}
	return &restartState{prog: prog, engine: img.Engine, device: img.Device, done: img.Done, replay: logs}
}

func (job *Job) spawn(rank int, st *restartState) {
	pr := &procRun{job: job, rank: rank, node: job.nodeOfRank(rank), gen: job.gen, restart: st}
	job.procs[rank] = pr
	job.k.Go(fmt.Sprintf("g%d.rank%d", job.gen, rank), pr.body)
}

func (job *Job) newProtocol(pr *procRun) core.Protocol {
	switch job.cfg.Protocol {
	case ProtoPcl:
		return pcl.New(pr, job.cfg.Interval)
	case ProtoVcl:
		return vcl.New(pr)
	case ProtoMlog:
		return mlog.New(pr, job.cfg.Interval)
	default:
		return core.None{}
	}
}

// detectedRank is the dispatcher's reaction to a rank failure, however
// it learned of it (instant detection, heartbeat timeout, scripted node
// kill).  Node-loss semantics apply when the rank's machine was killed
// outright.  Outside those and the in-job repair it is the paper's
// recovery: the dispatcher signals every process to exit and relaunches
// the application from the last committed wave.
func (job *Job) detectedRank(rank int) {
	if !job.running {
		return
	}
	node := job.nodeMap[rank]
	nodeDown := job.nodeKilled[node] && !job.deadNodes[node]
	if job.cfg.Protocol == ProtoMlog {
		if nodeDown {
			victims, ok := job.loseNode(node)
			if !ok {
				return
			}
			for _, v := range victims {
				job.onFailureLocal(v)
			}
		} else {
			job.onFailureLocal(rank)
		}
		return
	}
	if job.tryRepair(rank, node, nodeDown) {
		return
	}
	if nodeDown {
		if _, ok := job.loseNode(node); !ok {
			return
		}
	}
	job.lastKillSpan = job.hub.NextSpan()
	ds := job.detectSpan[rank]
	job.detectSpan[rank] = 0
	job.emit(obs.Event{Type: obs.EvRankKilled, Rank: rank, Wave: job.lastWave, Channel: -1, Node: node, Server: -1,
		Span: job.lastKillSpan, Cause: ds})
	job.running = false
	job.gen++
	for _, pr := range job.procs {
		if pr != nil {
			pr.teardown()
		}
	}
	if job.scheduler != nil {
		job.scheduler.Stop()
	}
	wave := job.lastWave
	// The relaunch is an event of its own, after whatever else this
	// instant holds; the respawn itself costs no virtual time.
	job.k.After(0, func() {
		if job.doneRes {
			return
		}
		job.launch(wave)
	})
}

// onFailureLocal implements message logging's single-process recovery:
// only the failed rank is torn down and restarted from its own image and
// logs; everyone else keeps computing and is told to retransmit.
func (job *Job) onFailureLocal(rank int) {
	pr := job.procs[rank]
	if pr == nil || job.recovering[rank] {
		return
	}
	ks := job.hub.NextSpan()
	ds := job.detectSpan[rank]
	job.detectSpan[rank] = 0
	job.emit(obs.Event{Type: obs.EvRankKilled, Rank: rank, Wave: job.rankWave[rank], Channel: -1, Node: job.nodeMap[rank], Server: -1,
		Span: ks, Cause: ds})
	job.recovering[rank] = true
	pr.teardown()
	wave := job.rankWave[rank]
	job.k.After(0, func() {
		if job.doneRes {
			return
		}
		job.restartSpan[rank] = job.hub.NextSpan()
		job.emit(obs.Event{Type: obs.EvRestartBegin, Rank: rank, Wave: wave, Channel: -1, Node: -1, Server: -1,
			Span: job.restartSpan[rank], Cause: ks})
		if wave == 0 {
			// No image yet: restart from scratch and replay the whole
			// reception history recorded since launch — the union across
			// live replicas, in case one of them died.
			var st *restartState
			if logs := job.store.LogsSinceUnion(rank, 0); logs != nil {
				st = &restartState{replay: logs}
			}
			job.respawnLocal(rank, st)
			return
		}
		job.fetchCommitted(rank, wave, 0,
			func(r int, onDone func(*ckpt.Image, []*mpi.Packet), onFail func(error)) {
				job.store.FetchSince(r, wave, job.nodeOfRank(r), onDone, onFail)
			},
			func() bool { return !job.doneRes }, job.respawnLocal)
	})
}

func (job *Job) respawnLocal(rank int, st *restartState) {
	job.recovering[rank] = false
	if job.store != nil {
		job.store.ResetChain(rank)
	}
	if job.det != nil {
		job.det.resetRank(rank)
	}
	job.spawn(rank, st)
	job.emit(obs.Event{Type: obs.EvRestartEnd, Rank: rank, Wave: job.rankWave[rank], Channel: -1, Node: -1, Server: -1,
		Span: job.restartSpan[rank]})
	job.restartSpan[rank] = 0
	// Once the fresh engine is bound (the LP runs before queued events),
	// live peers retransmit their unacknowledged messages.
	job.k.After(0, func() {
		for r, other := range job.procs {
			if r == rank || other == nil || other.proto == nil {
				continue
			}
			if pa, ok := other.proto.(core.PeerAware); ok {
				pa.PeerRestarted(rank)
			}
		}
	})
}

// commitRank advances one rank's private recovery line (uncoordinated
// checkpointing).
func (job *Job) commitRank(r, w int) {
	if w > job.rankWave[r] {
		job.rankWave[r] = w
	}
	job.emit(obs.Event{Type: obs.EvWaveCommit, Rank: r, Wave: w, Channel: -1, Node: -1, Server: -1,
		Span: job.hub.NextSpan()})
	job.store.GCRank(r, w)
}

func (job *Job) commitWave(w int) {
	for _, pr := range job.procs {
		if pr != nil {
			pr.dropSettled()
		}
	}
	job.lastWave = w
	job.emit(obs.Event{Type: obs.EvWaveCommit, Rank: -1, Wave: w, Channel: -1, Node: -1, Server: -1,
		Span: job.hub.NextSpan()})
	job.store.GC(w)
}

func (job *Job) procFinished(pr *procRun) {
	if job.procs[pr.rank] != pr || job.finishedRank[pr.rank] {
		return
	}
	job.finishedRank[pr.rank] = true
	job.finished++
	job.emit(obs.Event{Type: obs.EvRankDone, Rank: pr.rank, Wave: job.lastWave, Channel: -1, Node: -1, Server: -1})
	if job.repairing {
		// A rank finished while the world was parked for a repair: the
		// barrier can never fill, so the repair falls back to a restart.
		// Deferred one event so the finishing LP is not killed mid-body.
		job.k.After(0, job.abortRepair)
		return
	}
	if job.finished < job.cfg.NP {
		return
	}
	// Job complete.
	job.running = false
	for _, p := range job.procs {
		if p.proto != nil {
			p.proto.Stop()
		}
	}
	if job.scheduler != nil {
		job.scheduler.Stop()
	}
	// Every total is read off the run's own registry, which the
	// MetricsSink (and the fabric, for traffic) folded from the events.
	met := job.met
	ckptBytes := met.LogShipBytes
	for _, b := range met.ServerBytes {
		ckptBytes += b
	}
	job.res = Result{
		Completion: job.k.Now(),
		WaveBreakdown: WaveBreakdown{
			MeanSpread:   met.WaveSpread.Mean(),
			MeanTransfer: met.WaveTransfer.Mean(),
			MeanCycle:    met.WaveCycle.Mean(),
		},
		WavesCommitted: int(met.Tally[obs.EvWaveCommit]),
		LastWave:       job.lastWave,
		LocalCkpts:     int(met.Tally[obs.EvLocalCkptEnd]),
		Restarts:       int(met.Tally[obs.EvRankKilled]),
		Messages:       met.FabricMsgs,
		PayloadBytes:   met.FabricPayloadBytes,
		CkptBytes:      ckptBytes,
		LoggedMsgs:     int(met.Tally[obs.EvMessageLogged]),
		LoggedBytes:    met.LoggedBytes,
		ServerFailures: int(met.Tally[obs.EvServerKilled]),
		Failovers:      int(met.Tally[obs.EvReplicaFailover]),
		Repairs:        int(met.Tally[obs.EvRepairEnd]),
		LostWork:       job.lostWork,
	}
	if job.spans != nil {
		job.res.Attribution = job.spans.Finalize(job.k.Now())
	}
	job.doneRes = true
	job.met.CompletionS = job.k.Now().Seconds()
	job.emit(obs.Event{Type: obs.EvJobComplete, Rank: -1, Wave: job.lastWave, Channel: -1, Node: -1, Server: -1})
	job.k.Stop(nil)
}

// procRun is one process incarnation; it implements core.Host.
type procRun struct {
	job   *Job
	rank  int
	node  int
	gen   int
	lp    *sim.Proc
	eng   *mpi.Engine
	prog  mpi.Program
	proto core.Protocol
	// restart is the state a restored incarnation starts from (nil: a
	// fresh one), let go once body has installed it.
	restart *restartState
	ftBlob  []byte // partner-held app snapshot seeding a repaired rank
	done    bool
	down    bool // torn down (idempotence guard; heartbeat ground truth)
	// stores are the image and log stores this incarnation started that
	// still have something to cancel, in start order: what teardown
	// cancels, so it keeps nothing that has settled (see track).
	stores []ckpt.Op
}

// ftTunable is implemented by programs with an application-level
// snapshot cadence (in-memory partner checkpointing).  The cadence is
// soft state outside the protocol images, so it is re-set on every
// incarnation, fresh or restored.
type ftTunable interface{ SetFTEvery(int) }

func (pr *procRun) body(p *sim.Proc) {
	pr.lp = p
	pr.eng = mpi.NewEngine(pr.rank, pr.job.cfg.NP, p, pr.job.cfg.Profile, pr.job.fab)
	pr.eng.SetMetrics(pr.job.met)
	pr.eng.SetObs(pr.job.hub)
	if pr.job.ulfm() {
		pr.eng.EnableFT()
	}
	pr.proto = pr.job.newProtocol(pr)
	pr.eng.SetFilter(pr.proto)
	st := pr.restart
	if st != nil && st.prog != nil {
		pr.prog = st.prog
		pr.eng.RestoreImage(st.engine)
		pr.done = st.done
	} else {
		pr.prog = pr.job.cfg.NewProgram(pr.rank, pr.job.cfg.NP)
	}
	if pr.job.cfg.FTEvery > 0 {
		if ft, ok := pr.prog.(ftTunable); ok {
			ft.SetFTEvery(pr.job.cfg.FTEvery)
		}
	}
	if st != nil {
		pr.proto.Restore(st.device, st.replay, pr.job.lastWave)
	}
	if pr.ftBlob != nil {
		// Replacement for a repaired rank: install the partner-held
		// application snapshot; the protocol resumes past the still-
		// committed wave like any survivor.
		fp, ok := pr.prog.(mpi.FTProgram)
		if !ok || !fp.FTInstall(pr.ftBlob) {
			panic(fmt.Sprintf("ftpm: rank %d cannot install the partner-held snapshot", pr.rank))
		}
		pr.proto.Restore(nil, nil, pr.job.lastWave)
		pr.eng.EmitFT(obs.Event{Type: obs.EvAppRestore, Rank: pr.rank, Wave: pr.job.repairLevel,
			Channel: -1, Node: -1, Server: -1})
		pr.ftBlob = nil
	}
	pr.restart = nil
	p.Yield() // every engine binds before any body communicates
	pr.proto.Start()
	for !pr.done {
		if pr.eng.Revoked() {
			pr.ftRepairWait()
			continue
		}
		pr.stepOnce()
	}
	pr.eng.Finalize()
	pr.job.procFinished(pr)
}

// stepOnce advances the program one phase, converting an FT unwind
// (revocation or peer failure mid-operation) back into control flow: the
// in-flight collective state returns to its pool and the step loop
// re-enters through the repair wait.  Non-FT panics (including the
// kernel's kill unwind) propagate.
func (pr *procRun) stepOnce() {
	defer func() {
		if r := recover(); r != nil {
			if mpi.AsFTError(r) == nil {
				panic(r)
			}
			pr.eng.AbortColl()
		}
	}()
	pr.done = pr.prog.Step(pr.eng)
}

// teardown kills an incarnation after a failure.  Idempotent: silent
// (heartbeat-mode) kills tear the process down at death time and the
// recovery path tears everything down again at detection time.
func (pr *procRun) teardown() {
	if pr.down {
		return
	}
	pr.down = true
	if pr.proto != nil {
		pr.proto.Stop()
	}
	if pr.eng != nil {
		pr.eng.Close()
	}
	pr.job.fab.Unbind(pr.rank)
	pr.cancelStores()
	if pr.lp != nil {
		pr.job.k.Kill(pr.lp, fmt.Errorf("ftpm: rank %d torn down", pr.rank))
	}
}

// --- core.Host ----------------------------------------------------------

// Rank returns the process rank.
func (pr *procRun) Rank() int { return pr.rank }

// Size returns the job size.
func (pr *procRun) Size() int { return pr.job.cfg.NP }

// Engine returns the process engine.
func (pr *procRun) Engine() *mpi.Engine { return pr.eng }

// Obs returns the runtime's observability hub.
func (pr *procRun) Obs() *obs.Hub { return pr.job.hub }

// Wire sends a raw packet on the FIFO channel to dst.
func (pr *procRun) Wire(dst int, p mpi.Packet) {
	pr.job.fab.Send(pr.rank, dst, &p)
}

// Flood sends the marker p to every other rank in one fabric call.
func (pr *procRun) Flood(p mpi.Packet) {
	pr.job.fab.Flood(pr.rank, 0, pr.job.cfg.NP, &p)
}

// TakeCheckpoint captures the local image, into a record the storage
// hierarchy recycles, and ships it in the background.
func (pr *procRun) TakeCheckpoint(wave int, dev []byte, onStored func()) {
	img := pr.job.store.NewImage(pr.rank)
	app, err := ckpt.AppendProgram(img.App, pr.prog)
	if err != nil {
		panic(fmt.Sprintf("ftpm: rank %d: %v", pr.rank, err))
	}
	img.Wave, img.App, img.Engine, img.Device = wave, app, pr.eng.CaptureImage(), dev
	img.Footprint, img.Done = pr.prog.Footprint(), pr.done
	gen := pr.gen
	prof := pr.job.cfg.Profile
	// The fork'd clone and the pipelined transfer steal CPU and memory
	// bandwidth from the application until the image is stored.
	if prof.CkptSteal > 0 {
		pr.eng.AddSteal(prof.CkptSteal)
	}
	released := false
	release := func() {
		if !released && prof.CkptSteal > 0 {
			pr.eng.SubSteal(prof.CkptSteal)
		}
		released = true
	}
	op := pr.job.store.Store(img, pr.node, prof.ShipBW, func() {
		// Write quorum reached: the checkpoint is durable.
		release()
		pr.job.emit(obs.Event{Type: obs.EvImageDurable, Rank: pr.rank, Wave: wave, Channel: -1, Node: -1, Server: -1})
		if pr.job.gen == gen && onStored != nil {
			onStored()
		}
	}, func() {
		// Quorum unreachable (replicas died): the wave will never
		// commit; stop stealing bandwidth for it.
		release()
	})
	pr.track(op)
}

// ShipLogs replicates logged packets across the rank's replica set,
// acknowledging at the write quorum.  done goes to the store as it is: a
// completion from a revoked incarnation cannot arrive, because teardown
// and repair cancel every store that has not settled and a settled one
// calls nobody.  The store itself goes to the tracker alone.
func (pr *procRun) ShipLogs(wave int, pkts []*mpi.Packet, done core.LogSink) {
	pr.track(pr.job.store.StoreLogs(pr.rank, wave, pkts, pr.node, done))
}

// track remembers a store so that the incarnation's death cancels it.  A
// host tracks an op only while it is unsettled: when the list is full the
// settled ones are dropped before it grows, so it stays within a small
// multiple of the stores in flight instead of holding every op — with its
// packets and callbacks — of the whole run.  Order is kept: cancellation
// order is part of the run.  The tracker is a log op's last holder, so
// its drop is where the op is released for reuse (dropSettled).
func (pr *procRun) track(op ckpt.Op) {
	if len(pr.stores) == cap(pr.stores) {
		pr.dropSettled()
		if len(pr.stores) > cap(pr.stores)/2 {
			// Mostly live: double, so the next sweep is a list away.
			pr.stores = slices.Grow(pr.stores, cap(pr.stores)+1)
		}
	}
	pr.stores = append(pr.stores, op)
}

// dropSettled removes the stores with nothing left to cancel, in place,
// and releases each dropped store op (ckpt.StoreOp.Release): nothing else
// holds a log op once Mlog's record or Vcl's closure is its only sink, so
// this is where a log op goes back to its group's free list.
func (pr *procRun) dropSettled() {
	pr.stores = slices.DeleteFunc(pr.stores, func(op ckpt.Op) bool {
		if !op.Settled() {
			return false
		}
		if s, ok := op.(*ckpt.StoreOp); ok {
			s.Release()
		}
		return true
	})
}

// cancelStores aborts every store still in flight.
func (pr *procRun) cancelStores() {
	for _, op := range pr.stores {
		op.Cancel()
	}
	pr.stores = nil
}

// CommitWave advances the recovery line: the global one for coordinated
// protocols (coordinator only), this rank's private one for uncoordinated
// protocols.
func (pr *procRun) CommitWave(w int) {
	if pr.job.cfg.Protocol == ProtoMlog {
		pr.dropSettled()
		pr.job.commitRank(pr.rank, w)
		return
	}
	pr.job.commitWave(w)
}

// Now, After and Cancel are the rank's core.Clock: the kernel's.  The
// protocol's one timer is its core.Cadence's, which Protocol.Stop cancels.
func (pr *procRun) Now() sim.Time                           { return pr.job.k.Now() }
func (pr *procRun) After(d sim.Time, fn func()) sim.EventID { return pr.job.k.After(d, fn) }
func (pr *procRun) Cancel(id sim.EventID) bool              { return pr.job.k.Cancel(id) }

var _ core.Host = (*procRun)(nil)
