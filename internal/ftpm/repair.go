package ftpm

import (
	"fmt"

	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

// In-job (ULFM-style) recovery: instead of killing the whole job and
// relaunching it from the last committed wave, a detected rank failure is
// repaired in place —
//
//	detect → revoke → park → agree → splice → resume
//
// The dispatcher revokes the communicator (every survivor's blocked
// operation aborts with a typed error and the process parks in
// AwaitRepair), runs a failure agreement over the service network once
// everyone has parked, picks the newest application snapshot level every
// survivor holds, splices a replacement process in (onto a spare node
// when the machine died), rebinds the fabric, swaps in fresh protocol
// instances restored to the still-committed wave, and resumes.  The
// application restores from in-memory partner checkpoints (nas.ftState),
// so no image is fetched and the committed recovery line never moves.
//
// Every decision that cannot be honoured — no application snapshot yet,
// spares exhausted on a node loss, several ranks lost at once, a rank
// finishing while the world is parked — falls back to the classic
// rollback-restart path, which is always correct.
//
// Determinism: the whole state machine runs in kernel event context
// (detection callbacks, flow completions, the After(0) abort hook), every
// loop over ranks is ascending, and the agreement rounds are plain simnet
// flows — so repair, like restart, is a pure function of the seed.

// repairAgreeBytes is the per-survivor payload of one agreement round: a
// small header plus the failure bitmap.
const repairAgreeBytes = 64

// ulfm reports whether this job repairs failures in place.  Message
// logging keeps its native single-process recovery, which is already
// in-job and strictly better than a world repair.
func (job *Job) ulfm() bool {
	return job.cfg.Recovery == RecoveryULFM && job.cfg.Protocol != ProtoMlog
}

// tryRepair decides whether the failure of rank can be repaired in place
// and, if so, starts the repair.  It returns false when the caller must
// run the classic rollback-restart instead, true when it took ownership
// (repair underway, or the job already degraded during node loss).
func (job *Job) tryRepair(rank, node int, nodeDown bool) bool {
	if !job.ulfm() || job.repairing || job.repairSkip || job.finished > 0 {
		return false
	}
	pr := job.procs[rank]
	if pr == nil {
		return false
	}
	// Every other rank must be live: a second, silently dead rank
	// (heartbeat mode, not yet detected) could never reach the repair
	// barrier — and detection is suspended while the world is parked.
	for r, other := range job.procs {
		if r == rank {
			continue
		}
		if other == nil || other.down || other.eng == nil {
			return false
		}
	}
	if nodeDown {
		// A machine died with the rank.  Repair needs a spare to splice
		// the replacement onto (overbooking would double up a survivor's
		// node mid-run), and exactly one victim — losing several ranks at
		// once is the multi-failure case the fallback handles.
		if len(job.spares) == 0 {
			return false
		}
		n := 0
		for _, nd := range job.nodeMap {
			if nd == node {
				n++
			}
		}
		if n > 1 {
			return false
		}
	}
	// The victim's right neighbour must hold a copy of its state; without
	// one (failure before the first snapshot exchange) only a restart can
	// bring the rank back.
	partner := (rank + 1) % job.cfg.NP
	pp := job.procs[partner]
	if pp == nil || pp.down || pp.prog == nil {
		return false
	}
	fp, ok := pp.prog.(mpi.FTProgram)
	if !ok || fp.FTPeerLatest(rank) < 0 {
		return false
	}
	if nodeDown {
		if _, ok := job.loseNode(node); !ok {
			return true // degraded; nothing left to repair or restart
		}
	}
	job.beginRepair(rank)
	return true
}

// beginRepair opens the repair window: the victim's incarnation is torn
// down for good, wave scheduling pauses, and the world is revoked so
// every survivor unwinds into the repair barrier.
func (job *Job) beginRepair(victim int) {
	job.repairing = true
	job.repGen++
	job.repairVictim = victim
	job.repairParkedN = 0
	job.repairT0 = job.k.Now()
	job.running = false // new kills during the window no-op, as mid-restart

	ds := job.detectSpan[victim]
	job.detectSpan[victim] = 0
	ps := job.hub.NextSpan()
	job.emit(obs.Event{Type: obs.EvProcFailed, Rank: victim, Wave: job.lastWave, Channel: -1,
		Node: job.nodeMap[victim], Server: -1, Span: ps, Cause: ds})
	job.repairSpan = job.hub.NextSpan()
	job.emit(obs.Event{Type: obs.EvRepairBegin, Rank: -1, Wave: job.lastWave, Channel: victim,
		Node: -1, Server: -1, Span: job.repairSpan, Cause: ps})

	job.procs[victim].teardown() // idempotent: heartbeat mode tore it down at death

	if job.scheduler != nil {
		job.scheduler.Stop()
	}
	// Revoke the world.  Survivors' protocols are stopped first: a wave
	// start from the revoked incarnation's cadence must not inject markers
	// into the parked world.
	for r := 0; r < job.cfg.NP; r++ {
		if r == victim {
			continue
		}
		o := job.procs[r]
		o.proto.Stop()
		o.eng.NotifyFailed(victim)
		o.eng.Revoke()
	}
	job.emit(obs.Event{Type: obs.EvRevoked, Rank: -1, Wave: job.lastWave, Channel: victim,
		Node: -1, Server: -1, Cause: ps})
}

// repairParked is called by each survivor once it has unwound out of its
// aborted operation; when the last one parks, the agreement rounds start.
func (job *Job) repairParked(pr *procRun) {
	if !job.repairing {
		return
	}
	job.repairParkedN++
	if job.repairParkedN == job.cfg.NP-1 {
		job.repairAgreement(job.repGen)
	}
}

// repairAgreement runs the failure agreement over the service network
// (compare MPIX_Comm_agree): one flow per survivor to the dispatcher
// gathering local failure knowledge, then one back redistributing the
// union and the agreed restore level.  Both rounds are plain simnet
// flows, so their cost scales with the platform like everything else.
func (job *Job) repairAgreement(repGen int) {
	size := int64(repairAgreeBytes + job.cfg.NP/8)
	var survivors []int
	for r := 0; r < job.cfg.NP; r++ {
		if r != job.repairVictim {
			survivors = append(survivors, r)
		}
	}
	pending := len(survivors)
	for _, r := range survivors {
		job.net.StartFlow(job.nodeOfRank(r), job.serviceNode, size, func() {
			if job.repGen != repGen || !job.repairing {
				return // repair aborted while the round was in flight
			}
			pending--
			if pending > 0 {
				return
			}
			down := len(survivors)
			for _, q := range survivors {
				job.net.StartFlow(job.serviceNode, job.nodeOfRank(q), size, func() {
					if job.repGen != repGen || !job.repairing {
						return
					}
					down--
					if down == 0 {
						job.repairSplice(repGen)
					}
				})
			}
		})
	}
}

// repairSplice completes the repair once the agreement has settled: pick
// the restore level, account the lost work, advance the generation, flush
// the fabric, spawn the replacement and swap fresh protocol instances in.
func (job *Job) repairSplice(repGen int) {
	victim := job.repairVictim
	partner := (victim + 1) % job.cfg.NP

	// The restore level is the newest snapshot level every survivor
	// holds, capped by the level the partner holds for the victim.  Live
	// ranks park at most one exchange apart and each keeps the two most
	// recent levels, so whenever a level exists at all, the minimum is
	// held by everyone.
	level := -1
	ok := true
	for r := 0; r < job.cfg.NP && ok; r++ {
		if r == victim {
			continue
		}
		fp, isFT := job.procs[r].prog.(mpi.FTProgram)
		if !isFT || fp.FTLatest() < 0 {
			ok = false
			break
		}
		if l := fp.FTLatest(); level < 0 || l < level {
			level = l
		}
	}
	var blob []byte
	if ok {
		fp := job.procs[partner].prog.(mpi.FTProgram)
		if pl := fp.FTPeerLatest(victim); pl < 0 {
			ok = false
		} else {
			level = min(level, pl)
			blob, ok = fp.FTPeerSnapshot(victim, level)
		}
	}
	if !ok {
		// No application snapshot level every survivor and the partner hold.
		job.abortRepair()
		return
	}

	// Recovered-work accounting: everything computed after the restored
	// snapshot is redone, so it counts as lost.  The victim's own capture
	// time is approximated by its partner's (same level, same global
	// phase); a zero capture time marks a freshly installed blob whose
	// true time is unknown and is skipped.
	var lost, partnerT sim.Time
	for r := 0; r < job.cfg.NP; r++ {
		if r == victim {
			continue
		}
		fp := job.procs[r].prog.(mpi.FTProgram)
		t, held := fp.FTSnapshotTime(level)
		if held && t > 0 {
			lost += job.repairT0 - t
			if r == partner {
				partnerT = t
			}
		}
	}
	if partnerT > 0 {
		lost += job.repairT0 - partnerT
	}

	// The repaired world is a new generation: stale store completions,
	// heartbeat pongs and in-flight packets of the revoked incarnation
	// are dropped at the gen and epoch gates, exactly as across a full
	// restart — but the committed recovery line does not move.
	job.gen++
	for r := 0; r < job.cfg.NP; r++ {
		if r == victim {
			continue
		}
		pr := job.procs[r]
		pr.gen = job.gen
		pr.cancelStores()
		job.fab.Unbind(r) // closing the channels drops in-flight packets
	}
	job.repairLevel = level
	// The replacement spawns before the survivors are released: its LP
	// start precedes their wakeups in the event order, so its engine is
	// bound before the first post-repair message to the repaired rank.
	job.spawnRepair(victim, blob)
	for r := 0; r < job.cfg.NP; r++ {
		if r == victim {
			continue
		}
		pr := job.procs[r]
		job.fab.BindWire(r, pr.eng.HandleWire)
		pr.eng.FTReset()
		pr.proto = job.newProtocol(pr)
		pr.eng.SetFilter(pr.proto)
		pr.proto.Restore(nil, nil, job.lastWave)
		pr.proto.Start()
	}
	job.lostWork += lost
	job.repairing = false
	job.running = true
	if job.det != nil {
		job.det.resetRanks()
	}
	if job.scheduler != nil {
		job.scheduler.Start(job.lastWave)
	}
	job.emit(obs.Event{Type: obs.EvRepairEnd, Rank: -1, Wave: level, Channel: victim,
		Node: -1, Server: -1, Span: job.repairSpan})
	job.repairSpan = 0
}

// spawnRepair starts the replacement incarnation for the repaired rank,
// seeded with the partner-held application snapshot.
func (job *Job) spawnRepair(rank int, blob []byte) {
	pr := &procRun{job: job, rank: rank, node: job.nodeOfRank(rank), gen: job.gen, ftBlob: blob}
	job.procs[rank] = pr
	job.k.Go(fmt.Sprintf("g%d.rank%d", job.gen, rank), pr.body)
}

// abortRepair abandons an open repair window and falls back to the
// classic rollback-restart for the same victim.  Bumping repGen
// invalidates any agreement-round callback still in flight; the restart
// path then tears every survivor down (parked LPs die through the
// kernel's unwind, like any mid-restart kill).
func (job *Job) abortRepair() {
	if !job.repairing {
		return
	}
	job.repGen++
	job.repairing = false
	job.running = true // detectedRank requires a running job
	victim := job.repairVictim
	job.emit(obs.Event{Type: obs.EvRepairAbort, Rank: -1, Wave: job.lastWave, Channel: victim,
		Node: -1, Server: -1, Span: job.repairSpan})
	job.repairSpan = 0
	// The fallback must not re-enter the repair it just abandoned: the
	// condition that broke it (e.g. no common snapshot level) is not
	// visible to tryRepair's gates, so an unguarded re-entry could loop at
	// the same virtual instant.
	job.repairSkip = true
	job.detectedRank(victim)
	job.repairSkip = false
}

// ftRepairWait parks a survivor for the duration of the repair window
// and rolls its application back to the agreed snapshot level once the
// world is repaired.  Runs on the process LP.
func (pr *procRun) ftRepairWait() {
	job := pr.job
	// LPs run exclusively under the kernel, so mutating job state from
	// process context is safe (procFinished relies on the same).
	job.repairParked(pr)
	pr.eng.AwaitRepair()
	fp, ok := pr.prog.(mpi.FTProgram)
	if !ok || !fp.FTRollback(job.repairLevel) {
		// The splice agreed on a level every survivor holds; a miss here
		// is a broken invariant, not a recoverable condition.
		panic(fmt.Sprintf("ftpm: rank %d cannot roll back to agreed app level %d",
			pr.rank, job.repairLevel))
	}
	pr.eng.EmitFT(obs.Event{Type: obs.EvAppRestore, Rank: pr.rank, Wave: job.repairLevel,
		Channel: -1, Node: -1, Server: -1})
}
