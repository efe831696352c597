// Package span is the causal tracer of the runtime: a Sink that links the
// flat obs event stream back into spans (marker flights, freeze windows,
// checkpoint waves, image and log transfers, detection/rollback/replay
// episodes) connected by the cause edges the instrumented layers stamp on
// events (Event.Span / Event.Cause).  On top of the reassembled DAG it
// computes the per-phase overhead attribution the paper's analysis calls
// for: a conservation-checked breakdown of virtual completion time into
// compute, coordination, freeze, logging, image transfer, hierarchy
// drain, quorum wait, detection latency, rollback and replay — per rank,
// aggregated, and along the run's critical path specifically.
//
// The conservation invariant is structural, not statistical: every rank's
// timeline [0, completion] is partitioned exactly once, with overlapping
// phase windows resolved by a fixed precedence (detection > rollback >
// repair > replay > freeze > coordination > drain > quorum wait > image
// transfer > logging) and compute defined as the remainder, so the
// per-rank breakdown
// sums to the completion time by construction, in integer nanoseconds.
// Check re-verifies the invariant on a finished Attribution.
//
// Everything here is deterministic: the builder's output is a pure
// function of the event stream, and the stream itself is a pure function
// of the seed, so repeated runs — and sweeps at any -jobs value, since
// each run owns its hub and builder — produce byte-identical reports.
package span

import (
	"sort"

	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

// Phase indices of the attribution breakdown, in precedence order:
// when two phase windows overlap on one rank's timeline, the
// lower-numbered phase claims the overlap.
const (
	phaseDetection = iota
	phaseRollback
	phaseRepair // in-job (ULFM) repair window: revoke → shrink → resume
	phaseReplay
	phaseFreeze
	phaseCoordination
	phaseDrain // storage-hierarchy drain (buffer→servers, servers→PFS)
	phaseQuorum
	phaseImage
	phaseLogging
	phaseCompute // remainder; never carries intervals
	numPhases
)

// ival is one half-open virtual-time interval [Start, End).
type ival struct {
	Start, End sim.Time
}

// ivals is a sorted, disjoint interval set maintained by insert-merge.
type ivals []ival

// add unions [s, e) into the set.  Empty and inverted intervals are
// dropped.  The common case — s at or past the last end — is O(1).
func (v *ivals) add(s, e sim.Time) {
	if e <= s {
		return
	}
	a := *v
	// Fast path: strictly after everything present.
	if n := len(a); n == 0 || s > a[n-1].End {
		*v = append(a, ival{s, e})
		return
	}
	// First interval that could merge with [s, e): End >= s.
	i := sort.Search(len(a), func(k int) bool { return a[k].End >= s })
	if e < a[i].Start { // disjoint: insert before i
		a = append(a, ival{})
		copy(a[i+1:], a[i:])
		a[i] = ival{s, e}
		*v = a
		return
	}
	// Merge [s, e) with a[i..j].
	if s < a[i].Start {
		a[i].Start = s
	}
	if e > a[i].End {
		a[i].End = e
	}
	j := i
	for j+1 < len(a) && a[j+1].Start <= a[i].End {
		j++
		if a[j].End > a[i].End {
			a[i].End = a[j].End
		}
	}
	*v = append(a[:i+1], a[j+1:]...)
}

// total is the summed length of the set.
func (v ivals) total() sim.Time {
	var t sim.Time
	for _, iv := range v {
		t += iv.End - iv.Start
	}
	return t
}

// coordIval is a coordination window: the flight of the marker that pulled
// a rank into a checkpoint wave, [sent, wave entry), tagged with the
// sending endpoint so the critical-path walker can hop along it.
type coordIval struct {
	Start, End sim.Time
	Src        int // marker sender: a rank, or mpi.SchedulerID / -1
}

// markerFlight is an open marker span: sent, not yet resolved to a wave
// entry.
type markerFlight struct {
	Src  int
	Sent sim.Time
}

// xfer is an open image-store or log-ship span.
type xfer struct {
	Rank  int
	Begin sim.Time
}

// rankWave keys per-checkpoint state.
type rankWave struct{ rank, wave int }

// quorumTrack follows the replica stores of one (rank, wave) image: with
// replication, the window from the first replica's completion to the
// last's is quorum wait — the rank's image is somewhere durable but the
// wave cannot commit yet.
type quorumTrack struct {
	count             int
	firstEnd, lastEnd sim.Time
}

// episode is one failure-recovery episode: kill (or first kill, when a
// restart is itself killed), restart fetch window, and the per-rank replay
// bytes that attribute the tail of the fetch window to replay.
type episode struct {
	rank         int // -1: global rollback (coordinated protocols)
	wave         int
	killT        sim.Time
	beginT, endT sim.Time
	replayBytes  map[int]int64
}

// rankState accumulates one rank's phase windows.
type rankState struct {
	freeze    ivals
	logging   ivals
	image     ivals
	drain     ivals
	quorum    ivals
	detection ivals
	rollback  ivals
	repair    ivals
	replay    ivals
	coord     []coordIval

	freezeOpen  bool
	freezeStart sim.Time
	deadSince   sim.Time // EvComponentDead time under heartbeat detection
	deadOpen    bool
	doneT       sim.Time // EvRankDone time
	doneSeen    bool

	segs []segment // filled by Finalize
}

// segment is one elementary slice of a rank's partitioned timeline.
type segment struct {
	Start, End sim.Time
	Phase      int
	Src        int // marker sender for coordination segments, else -1
}

// Builder is a Sink reassembling the event stream into phase windows.
// Attach it to the run's Hub; call Finalize once the run completed.
// All state is bounded: intervals merge on insert, open-span maps shrink
// as spans close, so NP=1024 message-logging runs do not retain one
// record per logged message.
type Builder struct {
	np    int
	proto string
	// coordinated protocols roll every rank back together, so a kill and
	// its restart window apply to all timelines, not just the victim's.
	coordinated bool

	ranks   []rankState
	markers map[uint64]markerFlight
	// Open transfers by span ID: every begin/end pair carries the span
	// its emitter drew from Hub.NextSpan.
	xfers   map[uint64]xfer // open image stores
	ships   map[uint64]xfer // open log shipments
	drains  map[uint64]xfer // open hierarchy drains
	quorums map[rankWave]*quorumTrack
	imgSize map[rankWave]int64

	episodes    []*episode
	pendingKill map[int]sim.Time // rank (-1 global) → earliest kill time
	lastEp      map[int]*episode // rank (-1 global) → episode replays attach to
	open        map[int]*episode // rank (-1 global) → restart begun, not ended
	repOpen     map[int]sim.Time // rank (-1 global) → EvRepairBegin time
}

// NewBuilder returns a builder for an np-rank run of the named protocol.
func NewBuilder(np int, proto string) *Builder {
	return &Builder{
		np:          np,
		proto:       proto,
		coordinated: proto == "pcl" || proto == "vcl",
		ranks:       make([]rankState, np),
		markers:     make(map[uint64]markerFlight),
		xfers:       make(map[uint64]xfer),
		ships:       make(map[uint64]xfer),
		drains:      make(map[uint64]xfer),
		quorums:     make(map[rankWave]*quorumTrack),
		imgSize:     make(map[rankWave]int64),
		pendingKill: make(map[int]sim.Time),
		lastEp:      make(map[int]*episode),
		open:        make(map[int]*episode),
		repOpen:     make(map[int]sim.Time),
	}
}

func (b *Builder) rank(r int) *rankState {
	if r < 0 || r >= b.np {
		return nil
	}
	return &b.ranks[r]
}

// Emit folds one event.  Runs in simulation context, like every Sink.
func (b *Builder) Emit(ev obs.Event) {
	switch ev.Type {
	case obs.EvMarkerSent:
		if ev.Span != 0 {
			b.markers[ev.Span] = markerFlight{Src: ev.Rank, Sent: ev.T}
		}
	case obs.EvMarkerRecv:
		// The flight span resolved; the wave-entry edge (if any) was
		// already consumed by EvLocalCkptBegin, which precedes the
		// receipt in protocol emission order.
		delete(b.markers, ev.Span)
	case obs.EvLocalCkptBegin:
		if rs := b.rank(ev.Rank); rs != nil && ev.Cause != 0 {
			if m, ok := b.markers[ev.Cause]; ok && ev.T > m.Sent {
				rs.coord = append(rs.coord, coordIval{Start: m.Sent, End: ev.T, Src: m.Src})
			}
		}
	case obs.EvChannelBlocked:
		if rs := b.rank(ev.Rank); rs != nil {
			rs.freezeOpen, rs.freezeStart = true, ev.T
		}
	case obs.EvChannelUnblocked:
		if rs := b.rank(ev.Rank); rs != nil && rs.freezeOpen {
			rs.freezeOpen = false
			rs.freeze.add(rs.freezeStart, ev.T)
		}
	case obs.EvImageStoreBegin:
		if rs := b.rank(ev.Rank); rs != nil {
			b.xfers[ev.Span] = xfer{Rank: ev.Rank, Begin: ev.T}
			b.imgSize[rankWave{ev.Rank, ev.Wave}] = ev.Bytes
		}
	case obs.EvImageStoreEnd:
		if x, ok := b.xfers[ev.Span]; ok {
			delete(b.xfers, ev.Span)
			if rs := b.rank(x.Rank); rs != nil {
				rs.image.add(x.Begin, ev.T)
			}
			q := b.quorums[rankWave{x.Rank, ev.Wave}]
			if q == nil {
				q = &quorumTrack{}
				b.quorums[rankWave{x.Rank, ev.Wave}] = q
			}
			q.count++
			if q.count == 1 || ev.T < q.firstEnd {
				q.firstEnd = ev.T
			}
			if ev.T > q.lastEnd {
				q.lastEnd = ev.T
			}
		}
	case obs.EvLogShipBegin:
		if b.rank(ev.Rank) != nil {
			b.ships[ev.Span] = xfer{Rank: ev.Rank, Begin: ev.T}
		}
	case obs.EvDrainBegin:
		if b.rank(ev.Rank) != nil {
			b.drains[ev.Span] = xfer{Rank: ev.Rank, Begin: ev.T}
		}
	case obs.EvDrainEnd:
		if x, ok := b.drains[ev.Span]; ok {
			delete(b.drains, ev.Span)
			if rs := b.rank(x.Rank); rs != nil {
				rs.drain.add(x.Begin, ev.T)
			}
		}
	case obs.EvLogShipEnd:
		if x, ok := b.ships[ev.Span]; ok {
			delete(b.ships, ev.Span)
			if rs := b.rank(x.Rank); rs != nil {
				rs.logging.add(x.Begin, ev.T)
			}
		}
	case obs.EvComponentDead:
		if rs := b.rank(ev.Rank); rs != nil {
			rs.deadSince, rs.deadOpen = ev.T, true
		}
	case obs.EvHeartbeatTimeout:
		if rs := b.rank(ev.Rank); rs != nil && rs.deadOpen {
			rs.deadOpen = false
			rs.detection.add(rs.deadSince, ev.T)
		}
	case obs.EvRankKilled:
		scope := ev.Rank
		if b.coordinated {
			scope = -1
		}
		if _, already := b.pendingKill[scope]; !already {
			b.pendingKill[scope] = ev.T
		}
		delete(b.open, scope) // a restart in progress was itself aborted
	case obs.EvRestartBegin:
		if kill, ok := b.pendingKill[ev.Rank]; ok {
			b.open[ev.Rank] = &episode{
				rank: ev.Rank, wave: ev.Wave,
				killT: kill, beginT: ev.T,
				replayBytes: make(map[int]int64),
			}
		}
	case obs.EvRestartEnd:
		if ep, ok := b.open[ev.Rank]; ok {
			delete(b.open, ev.Rank)
			delete(b.pendingKill, ev.Rank)
			ep.endT = ev.T
			b.episodes = append(b.episodes, ep)
			b.lastEp[ev.Rank] = ep
		}
	case obs.EvMessageReplayed:
		// Replays are emitted as the restarted process resumes, at the
		// restart's end time; they attach to the rank's episode — the
		// per-rank one (mlog) or the global rollback (coordinated).
		if ep, ok := b.lastEp[ev.Rank]; ok {
			ep.replayBytes[ev.Rank] += ev.Bytes
		} else if ep, ok := b.lastEp[-1]; ok {
			ep.replayBytes[ev.Rank] += ev.Bytes
		}
	case obs.EvRepairBegin:
		b.repOpen[ev.Rank] = ev.T
	case obs.EvRepairEnd, obs.EvRepairAbort:
		// An aborted repair closes its window the same way — the fallback
		// rollback-restart episode takes over from the abort time.
		if t0, ok := b.repOpen[ev.Rank]; ok {
			delete(b.repOpen, ev.Rank)
			b.addRepair(ev.Rank, t0, ev.T)
		}
	case obs.EvRankDone:
		if rs := b.rank(ev.Rank); rs != nil {
			rs.doneT, rs.doneSeen = ev.T, true
		}
	}
}

// addRepair records one in-job repair window on the affected timelines:
// every rank for a global (scope < 0) repair — all survivors park in
// AwaitRepair while the world is revoked — else the one rank being
// respawned locally.
func (b *Builder) addRepair(scope int, s, e sim.Time) {
	if scope < 0 {
		for r := range b.ranks {
			b.ranks[r].repair.add(s, e)
		}
		return
	}
	if rs := b.rank(scope); rs != nil {
		rs.repair.add(s, e)
	}
}

// Finalize partitions every rank's timeline and derives the attribution
// for a run that completed at the given virtual time.  Call once.
func (b *Builder) Finalize(completion sim.Time) *Attribution {
	// Unclosed freeze windows (a rank frozen when the job was torn down)
	// close at the horizon, like the Chrome exporter's aborted spans.
	for r := range b.ranks {
		rs := &b.ranks[r]
		if rs.freezeOpen {
			rs.freezeOpen = false
			rs.freeze.add(rs.freezeStart, completion)
		}
	}
	// A repair still open at the horizon (the job degraded mid-repair)
	// likewise closes there.  Sorted sweep for canonical order.
	rkeys := make([]int, 0, len(b.repOpen))
	for k := range b.repOpen {
		rkeys = append(rkeys, k)
	}
	sort.Ints(rkeys)
	for _, scope := range rkeys {
		b.addRepair(scope, b.repOpen[scope], completion)
	}

	// Quorum-wait windows: with replication, [first replica stored, last
	// replica stored) per image.  Sorted key sweep for determinism (the
	// union is order-independent, but stay canonical anyway).
	qkeys := make([]rankWave, 0, len(b.quorums))
	for k := range b.quorums {
		qkeys = append(qkeys, k)
	}
	sort.Slice(qkeys, func(i, j int) bool {
		if qkeys[i].rank != qkeys[j].rank {
			return qkeys[i].rank < qkeys[j].rank
		}
		return qkeys[i].wave < qkeys[j].wave
	})
	for _, k := range qkeys {
		if q := b.quorums[k]; q.count >= 2 {
			if rs := b.rank(k.rank); rs != nil {
				rs.quorum.add(q.firstEnd, q.lastEnd)
			}
		}
	}

	// Recovery episodes: rollback from the kill to the restart's end,
	// with the tail of the fetch window re-attributed to replay in
	// proportion to the replayed-log bytes vs. the image bytes the same
	// fetch carried (the two share one flow on the wire).
	for _, ep := range b.episodes {
		victims := []int{ep.rank}
		if ep.rank < 0 {
			victims = victims[:0]
			for r := 0; r < b.np; r++ {
				victims = append(victims, r)
			}
		}
		for _, r := range victims {
			rs := b.rank(r)
			if rs == nil {
				continue
			}
			split := ep.endT
			if rep := ep.replayBytes[r]; rep > 0 {
				img := b.imgSize[rankWave{r, ep.wave}]
				if window := ep.endT - ep.beginT; window > 0 {
					split = ep.endT - window*sim.Time(rep)/sim.Time(rep+img)
				}
			}
			rs.rollback.add(ep.killT, split)
			rs.replay.add(split, ep.endT)
		}
	}
	// A kill with no completed restart (degraded end): rollback to the
	// horizon.  Sorted sweep over the scope keys for canonical order.
	pkeys := make([]int, 0, len(b.pendingKill))
	for k := range b.pendingKill {
		pkeys = append(pkeys, k)
	}
	sort.Ints(pkeys)
	for _, scope := range pkeys {
		kill := b.pendingKill[scope]
		victims := []int{scope}
		if scope < 0 {
			victims = victims[:0]
			for r := 0; r < b.np; r++ {
				victims = append(victims, r)
			}
		}
		for _, r := range victims {
			if rs := b.rank(r); rs != nil {
				rs.rollback.add(kill, completion)
			}
		}
	}

	a := &Attribution{
		Protocol:     b.proto,
		NP:           b.np,
		Completion:   completion,
		Ranks:        make([]Breakdown, b.np),
		CriticalRank: -1,
	}
	for r := range b.ranks {
		rs := &b.ranks[r]
		rs.segs = partition(rs, completion)
		bd := &a.Ranks[r]
		for _, sg := range rs.segs {
			bd.addPhase(sg.Phase, sg.End-sg.Start)
		}
		a.Aggregate.accum(*bd)
	}

	// Critical path: start from the last rank to finish (ties: lowest
	// rank), walk its timeline backwards, and on a coordination segment —
	// time spent waiting for another endpoint's marker — hop to the
	// sending rank at the segment's start.
	last, lastT := -1, sim.Time(-1)
	for r := range b.ranks {
		rs := &b.ranks[r]
		if rs.doneSeen && rs.doneT > lastT {
			last, lastT = r, rs.doneT
		}
	}
	if last < 0 && b.np > 0 {
		last = 0
	}
	a.CriticalRank = last
	if last >= 0 {
		cur, t := last, completion
		for t > 0 {
			sg := segAt(b.ranks[cur].segs, t)
			a.CriticalPath.addPhase(sg.Phase, t-sg.Start)
			t = sg.Start
			if sg.Phase == phaseCoordination && sg.Src >= 0 && sg.Src < b.np && sg.Src != cur {
				cur = sg.Src
				a.CriticalHops++
			}
		}
	}
	return a
}

// segAt returns the segment containing (t-1, t].  Segments partition
// [0, completion], so the lookup always succeeds for 0 < t ≤ completion.
func segAt(segs []segment, t sim.Time) segment {
	i := sort.Search(len(segs), func(k int) bool { return segs[k].End >= t })
	return segs[i]
}

// partition slices [0, total] into maximal segments of constant phase,
// resolving overlaps by phase precedence and filling gaps with compute.
func partition(rs *rankState, total sim.Time) []segment {
	type src struct {
		set ivals
		phs int
	}
	sets := []src{
		{rs.detection, phaseDetection},
		{rs.rollback, phaseRollback},
		{rs.repair, phaseRepair},
		{rs.replay, phaseReplay},
		{rs.freeze, phaseFreeze},
		// Drain outranks the quorum/image windows of the server stores it
		// contains: with staging, the background push down the hierarchy
		// is its own cost class, not image-transfer time.
		{rs.drain, phaseDrain},
		{rs.quorum, phaseQuorum},
		{rs.image, phaseImage},
		{rs.logging, phaseLogging},
	}
	// Boundary sweep: every interval edge, clipped to [0, total].
	bounds := []sim.Time{0, total}
	addB := func(t sim.Time) {
		if t > 0 && t < total {
			bounds = append(bounds, t)
		}
	}
	for _, s := range sets {
		for _, iv := range s.set {
			addB(iv.Start)
			addB(iv.End)
		}
	}
	for _, c := range rs.coord {
		addB(c.Start)
		addB(c.End)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })

	covers := func(set ivals, t sim.Time) bool {
		i := sort.Search(len(set), func(k int) bool { return set[k].End > t })
		return i < len(set) && set[i].Start <= t
	}

	var segs []segment
	prev := sim.Time(0)
	for _, bnd := range bounds {
		if bnd <= prev {
			continue
		}
		t := prev // phase is constant on [prev, bnd); probe its start
		phase, msrc := phaseCompute, -1
		for _, s := range sets {
			if covers(s.set, t) {
				phase = s.phs
				break
			}
		}
		if phase == phaseCompute || phase > phaseCoordination {
			// Coordination outranks quorum/image/logging but yields to
			// detection, rollback, replay and freeze.
			for _, c := range rs.coord {
				if c.Start <= t && t < c.End {
					phase, msrc = phaseCoordination, c.Src
					break
				}
			}
		}
		if n := len(segs); n > 0 && segs[n-1].Phase == phase && segs[n-1].Src == msrc && segs[n-1].End == prev {
			segs[n-1].End = bnd
		} else {
			segs = append(segs, segment{Start: prev, End: bnd, Phase: phase, Src: msrc})
		}
		prev = bnd
	}
	if len(segs) == 0 {
		segs = []segment{{Start: 0, End: total, Phase: phaseCompute, Src: -1}}
	}
	return segs
}
