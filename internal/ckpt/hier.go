// Multi-level checkpoint storage hierarchy.
//
// Real large-scale checkpointing systems (FTI, SCR) stage images through
// a hierarchy of storage levels: a node-local buffer (RAM disk / SSD)
// absorbs the checkpoint at memory speed so the job resumes computing,
// then an asynchronous drain pushes copies down to replicated checkpoint
// servers and finally to the parallel file system.  Each level trades
// bandwidth for reliability: the buffer is fastest but dies with its
// medium, the PFS is slowest but survives everything short of losing a
// stripe target.
//
// Hierarchy wraps the replicated Group with that staging model.  A spec
// with only the servers level degenerates to pure delegation, which is
// byte-identical to the pre-hierarchy code.  Recovery searches top-down:
// the node-local buffer (free restore), then the server group, then the
// PFS stripes — falling through dead levels and counting each
// fall-through as a failover.
package ckpt

import (
	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// LevelKind names a storage-hierarchy level class.
type LevelKind string

const (
	// LevelBuffer is a node-local staging buffer (RAM disk / SSD): one
	// per compute node, written at local-device speed, lost with the
	// device.  Must be the first level when present.
	LevelBuffer LevelKind = "buffer"
	// LevelServers is the replicated checkpoint-server group — the
	// paper's checkpoint servers.  Exactly one servers level is
	// mandatory; a spec with only this level is the paper's model.
	LevelServers LevelKind = "servers"
	// LevelPFS is a striped parallel file system over dedicated target
	// nodes: cheapest per byte, most reliable, slowest.  Must be the
	// last level when present.
	LevelPFS LevelKind = "pfs"
)

// LevelSpec configures one level of the hierarchy.  Which fields apply
// depends on Kind (a buffer level has none); Spec.Normalize fills the
// PFS defaults.
type LevelSpec struct {
	Kind LevelKind

	// Servers-level fields: the server tier's size, replication and
	// retries, said nowhere else (ftpm.Config.Servers is shorthand for a
	// spec with only this level).
	Servers      int
	Replicas     int
	WriteQuorum  int
	StoreRetries int
	RetryBackoff sim.Time

	// Targets is the PFS target-node count; Stripes is how many targets
	// one image is striped across.
	Targets int
	Stripes int
}

// Spec is the full storage-hierarchy configuration: the ordered levels
// (top first) plus the image-pricing switches shared by all levels.
type Spec struct {
	// Levels, top (fastest, least reliable) to bottom.  Exactly one
	// LevelServers entry is required; LevelBuffer must be first and
	// LevelPFS last when present.
	Levels []LevelSpec

	// Incremental captures dirty-region deltas between full images: a
	// full image every chainLength-th checkpoint per rank, and a delta d
	// intervals past its base stores min(1, d·dirtyPerInterval) of the
	// full size.
	Incremental bool
	// Compress models checkpoint compression: stored and restored bytes
	// shrink to compressedShare of their size.
	Compress bool
}

// The level device model and the image pricing: constants of every run.
const (
	// BufferBW is a node buffer's local write/read speed in bytes/second
	// (SSD/RAM-disk class), and bufferSetup its fixed per-operation cost.
	BufferBW    = 2e9
	bufferSetup = 200 * sim.Time(1000)
	// PFSStripeBW caps one PFS stripe flow, in bytes/second.
	PFSStripeBW = 1e9

	chainLength      = 4
	dirtyPerInterval = 0.35
	compressedShare  = 0.6
)

// DefaultPFSTargets is the PFS target count of a level that names none.
const DefaultPFSTargets = 4

// Normalize fills the PFS level's Targets and Stripes defaults in place
// and returns the spec.
func (sp *Spec) Normalize() *Spec {
	for i := range sp.Levels {
		if l := &sp.Levels[i]; l.Kind == LevelPFS {
			if l.Targets <= 0 {
				l.Targets = DefaultPFSTargets
			}
			if l.Stripes <= 0 {
				l.Stripes = 2
			}
			l.Stripes = min(l.Stripes, l.Targets)
		}
	}
	return sp
}

// Level returns the index of the first level of the given kind, -1 if
// absent.
func (sp *Spec) Level(kind LevelKind) int {
	for i := range sp.Levels {
		if sp.Levels[i].Kind == kind {
			return i
		}
	}
	return -1
}

// ServersLevel returns the servers level, which validation guarantees
// exists; nil on a malformed spec.
func (sp *Spec) ServersLevel() *LevelSpec {
	if i := sp.Level(LevelServers); i >= 0 {
		return &sp.Levels[i]
	}
	return nil
}

// WithoutStaging returns a copy of the spec keeping only the servers
// level.  Message-logging recovery fetches per-rank image+log unions
// from the server group as soon as a failure is detected, which is
// incompatible with asynchronously draining staged copies — so mlog
// jobs run the degenerate hierarchy (incremental and compressed pricing
// still apply).
func (sp *Spec) WithoutStaging() *Spec {
	out := *sp
	out.Levels = nil
	for _, l := range sp.Levels {
		if l.Kind == LevelServers {
			out.Levels = append(out.Levels, l)
		}
	}
	return &out
}

// nodeBuffer is one node's staging buffer.  It keeps every image until
// GC reclaims it; each entry is a holder of its record.
type nodeBuffer struct {
	node   int
	dead   bool
	images map[imgKey]*Image
	drains []*StoreOp
}

// pfsStore is the striped logical store over the PFS target nodes.  An
// image is readable only while every target holding one of its stripes
// is still alive.
type pfsStore struct {
	stripes int
	nodes   []int // target index → machine
	dead    []bool
	images  map[imgKey]*pfsImage
	// staging is the image of each stripe write in flight, which holds it
	// until the entry it lands as does.
	staging map[imgKey]*Image
}

type pfsImage struct {
	img     *Image
	targets []int
}

func (p *pfsStore) readable(k imgKey) *Image {
	ent := p.images[k]
	if ent == nil {
		return nil
	}
	for _, t := range ent.targets {
		if p.dead[t] {
			return nil
		}
	}
	return ent.img
}

// liveTargets returns up to want live target indices starting the scan
// at rank%Targets, so stripes spread across targets deterministically.
func (p *pfsStore) liveTargets(rank, want int) []int {
	n := len(p.nodes)
	var out []int
	for i := 0; i < n && len(out) < want; i++ {
		t := (rank + i) % n
		if !p.dead[t] {
			out = append(out, t)
		}
	}
	return out
}

// chainState tracks one rank's incremental-image chain.
type chainState struct {
	haveFull     bool
	fullWave     int
	sinceFull    int
	chainRestore int64 // uncompressed base + delta payloads so far
}

// Hierarchy is the multi-level store the protocol engine writes
// checkpoints through.  All methods must be called from the simulation
// kernel (no locking).
type Hierarchy struct {
	k     *sim.Kernel
	net   *simnet.Network
	spec  Spec
	group *Group

	bufIdx, srvIdx, pfsIdx int

	buffers  map[int]*nodeBuffer
	bufNodes []int // creation order, for deterministic GC sweeps
	pfs      *pfsStore

	chains map[int]*chainState

	// ranks is each rank's image bookkeeping: its free lists (NewImage)
	// and its own GC line (GCRank).
	ranks []rankImages
	// gcLine is the wave GC last collected below: a rank's GC line is the
	// higher of it and the rank's own, and it only rises (see line).
	gcLine int

	hub *obs.Hub
}

// Op is the cancellation handle shared by every store/fetch the
// hierarchy starts; Cancel aborts whatever leg is in flight.  Settled
// reports that no leg is: nothing is left to cancel and no callback will
// run, so a holder that only keeps the handle to cancel it can let it go.
type Op interface {
	Cancel()
	Settled() bool
}

// NewHierarchy builds the hierarchy over an existing server group.  The
// spec must already be validated (exactly one servers level, buffer
// first, pfs last) and normalized.  pfsNodes maps PFS target index to
// machine; required iff the spec has a PFS level.
func NewHierarchy(net *simnet.Network, spec Spec, group *Group, pfsNodes []int) *Hierarchy {
	h := &Hierarchy{
		k:      net.Kernel(),
		net:    net,
		spec:   spec,
		group:  group,
		bufIdx: spec.Level(LevelBuffer),
		srvIdx: spec.Level(LevelServers),
		pfsIdx: spec.Level(LevelPFS),
		chains: make(map[int]*chainState),
	}
	if h.bufIdx >= 0 {
		h.buffers = make(map[int]*nodeBuffer)
	}
	if h.pfsIdx >= 0 {
		h.pfs = &pfsStore{
			stripes: spec.Levels[h.pfsIdx].Stripes,
			nodes:   pfsNodes,
			dead:    make([]bool, len(pfsNodes)),
			images:  make(map[imgKey]*pfsImage),
			staging: make(map[imgKey]*Image),
		}
	}
	return h
}

// rankImages is one rank's image bookkeeping: its free lists, the first
// nimages of images (records whose count reached zero, emptied) and the
// first napps of apps (the App buffers of released and retired records),
// which the rank's next captures take; and the wave GCRank last collected
// the rank's data below.  The lists are arrays, so a rank's share is one
// element of the hierarchy's index and costs no allocation of its own.
type rankImages struct {
	images         [maxFreeImages]*Image
	apps           [maxFreeImages][]byte
	nimages, napps int
	line           int
}

// rank returns rank r's bookkeeping, growing the index to reach it.
func (h *Hierarchy) rank(r int) *rankImages {
	for len(h.ranks) <= r {
		h.ranks = append(h.ranks, rankImages{})
	}
	return &h.ranks[r]
}

// NewImage returns an empty image record for rank: one the rank released
// or a new one, with an App buffer the rank got back, which keeps its
// capacity for the next AppendProgram, when there is one.  The buffer
// returns to the rank once no level entry and no fetch leg can read it
// below the rank's GC line, the record once no holder is left (see Image).
func (h *Hierarchy) NewImage(rank int) *Image {
	ri := h.rank(rank)
	var app []byte
	if ri.napps > 0 {
		ri.napps--
		app, ri.apps[ri.napps] = ri.apps[ri.napps], nil
	}
	if ri.nimages == 0 {
		return &Image{Rank: rank, App: app, home: h}
	}
	ri.nimages--
	im := ri.images[ri.nimages]
	ri.images[ri.nimages] = nil
	*im = Image{Rank: rank, App: app, home: h}
	return im
}

// putApp takes back a rank's App buffer, emptied, unless maxFreeImages
// wait.
func (h *Hierarchy) putApp(rank int, app []byte) {
	if ri := &h.ranks[rank]; cap(app) > 0 && ri.napps < maxFreeImages {
		ri.apps[ri.napps] = app[:0]
		ri.napps++
	}
}

// putImage takes back a released record, unless maxFreeImages wait.
func (h *Hierarchy) putImage(im *Image) {
	if ri := &h.ranks[im.Rank]; ri.nimages < maxFreeImages {
		ri.images[ri.nimages] = im
		ri.nimages++
	}
}

// line returns rank's GC line: no level keeps its waves below it, and no
// fetch may ask for one.
func (h *Hierarchy) line(rank int) int {
	if rank < len(h.ranks) {
		return max(h.gcLine, h.ranks[rank].line)
	}
	return h.gcLine
}

// put stores img as the buffer's copy of its wave, holding it, and
// lets go of a different record it replaces.
func (b *nodeBuffer) put(img *Image) {
	k := imgKey{img.Rank, img.Wave}
	old := b.images[k]
	if old == img {
		return
	}
	img.holdRead()
	b.images[k] = img
	old.dropRead()
}

// SetObs attaches the hub hierarchy events go to.
func (h *Hierarchy) SetObs(hub *obs.Hub) { h.hub = hub; h.group.SetObs(hub) }

func (h *Hierarchy) emit(ev obs.Event) {
	ev.T = h.k.Now()
	h.hub.Emit(ev)
}

// bwTime is the modelled transfer time of n bytes at bw bytes/second.
func bwTime(n int64, bw float64) sim.Time {
	return sim.Time(float64(n) / bw * 1e9)
}

func (h *Hierarchy) buffer(node int) *nodeBuffer {
	b := h.buffers[node]
	if b == nil {
		b = &nodeBuffer{node: node, images: make(map[imgKey]*Image)}
		h.buffers[node] = b
		h.bufNodes = append(h.bufNodes, node)
	}
	return b
}

// price stamps the image with its modelled stored/restore costs under the
// spec's incremental and compression switches, advancing the rank's delta
// chain.  Store calls it once, at entry: these are the last writes to the
// image, made before any level holds a reference to it.
func (h *Hierarchy) price(img *Image) {
	if !h.spec.Incremental && !h.spec.Compress {
		return
	}
	full := img.Bytes()
	stored, restore := full, full
	if h.spec.Incremental {
		ch := h.chains[img.Rank]
		if ch == nil {
			ch = &chainState{}
			h.chains[img.Rank] = ch
		}
		if ch.haveFull && ch.sinceFull < chainLength-1 {
			ch.sinceFull++
			frac := dirtyPerInterval * float64(ch.sinceFull)
			if frac > 1 {
				frac = 1
			}
			payload := int64(float64(full) * frac)
			if payload < 1 {
				payload = 1
			}
			img.Delta = true
			img.Base = ch.fullWave
			stored = payload
			ch.chainRestore += payload
			restore = ch.chainRestore
		} else {
			ch.haveFull = true
			ch.fullWave = img.Wave
			ch.sinceFull = 0
			ch.chainRestore = full
		}
	}
	if h.spec.Compress {
		stored = int64(float64(stored) * compressedShare)
		restore = int64(float64(restore) * compressedShare)
		if stored < 1 {
			stored = 1
		}
		if restore < 1 {
			restore = 1
		}
	}
	img.Stored, img.Restore = stored, restore
}

// ResetChains forces the next image of every rank to be full.  Called
// after a rollback: the restarted address space diverges from the old
// base, so chaining a delta off it would be meaningless.
func (h *Hierarchy) ResetChains() {
	h.chains = make(map[int]*chainState)
}

// ResetChain forces the next image of one rank to be full (per-rank
// mlog restarts).
func (h *Hierarchy) ResetChain(rank int) {
	delete(h.chains, rank)
}

// hierOp is a store or restore fetch in progress above or below the
// server group: the buffer device timer, the group operation or the PFS
// stripe flows of whichever leg is in flight.  leg is the image a buffer
// write, a buffer read or a PFS read holds until it is done with it (a
// group operation holds its own); a fetch's legs read it (read).
type hierOp struct {
	h         *Hierarchy
	timer     sim.EventID
	inner     Op
	flows     []*simnet.Flow
	leg       *Image
	read      bool
	cancelled bool
}

// holdLeg makes img the image the leg in flight holds.
func (op *hierOp) holdLeg(img *Image) {
	if op.read {
		img.holdRead()
	} else {
		img.hold()
	}
	op.leg = img
}

// dropLeg lets go of the leg's image.
func (op *hierOp) dropLeg() {
	if op.read {
		op.leg.dropRead()
	} else {
		op.leg.drop()
	}
	op.leg = nil
}

// Settled: no device timer, no inner operation with a leg in flight, no
// stripe flows — or cancelled.  (A buffer-level store settles when the
// local write lands: the drain that follows belongs to the buffer.)
func (op *hierOp) Settled() bool {
	return op.cancelled ||
		op.timer == 0 && len(op.flows) == 0 && (op.inner == nil || op.inner.Settled())
}

func (op *hierOp) Cancel() {
	if op.cancelled {
		return
	}
	op.cancelled = true
	if op.timer != 0 {
		op.h.k.Cancel(op.timer)
		op.timer = 0
	}
	if op.inner != nil {
		op.inner.Cancel()
		op.inner = nil
	}
	for _, f := range op.flows {
		f.Cancel()
	}
	op.flows = nil
	op.dropLeg()
}

// Store writes img through the hierarchy.  It prices the image first (the
// incremental delta, compression) and from then on the image is read-only:
// the buffer, every replica and the PFS entry share the one pointer.  With
// a buffer level the commit gate (onQuorum) fires when the node-local
// write completes — that is the point the image is recoverable if the
// process dies — and an asynchronous drain then pushes copies to the
// server group and the PFS.  Without a buffer the group's write quorum is
// the gate.  Cancel aborts the leg the dying process still owns;
// drains belong to the buffer and survive rank death.
func (h *Hierarchy) Store(img *Image, srcNode int, cap simnet.Rate, onQuorum, onFailed func()) Op {
	h.price(img)
	if h.bufIdx < 0 {
		return h.storeToServers(img, srcNode, cap, onQuorum, onFailed)
	}
	buf := h.buffer(srcNode)
	if buf.dead {
		// The node's staging device is gone; fall through to the
		// servers so the job keeps checkpointing, just slower.
		return h.storeToServers(img, srcNode, cap, onQuorum, onFailed)
	}
	op := &hierOp{h: h}
	op.holdLeg(img)
	stored := img.StoredBytes()
	span := h.hub.NextSpan()
	h.emit(obs.Event{Type: obs.EvImageStoreBegin, Rank: img.Rank, Wave: img.Wave,
		Channel: -1, Node: srcNode, Server: -1, Level: h.bufIdx, Bytes: stored, Span: span})
	op.timer = h.k.After(bufferSetup+bwTime(stored, BufferBW), func() {
		op.timer = 0
		if buf.dead {
			// Device died mid-write: the local copy is lost, retry
			// against the servers.
			op.inner = h.storeToServers(img, srcNode, cap, onQuorum, onFailed)
			op.dropLeg()
			return
		}
		buf.put(img)
		h.emit(obs.Event{Type: obs.EvImageStoreEnd, Rank: img.Rank, Wave: img.Wave,
			Channel: -1, Node: srcNode, Server: -1, Level: h.bufIdx, Bytes: stored, Span: span})
		if onQuorum != nil {
			onQuorum()
		}
		h.drainFromBuffer(buf, img, cap)
		op.dropLeg()
	})
	return op
}

// storeToServers writes img straight to the server group: the group's
// quorum is the commit gate, and reaching it starts the PFS drain.
func (h *Hierarchy) storeToServers(img *Image, srcNode int, cap simnet.Rate, onQuorum, onFailed func()) *StoreOp {
	return h.group.Store(img, srcNode, cap, func() {
		if onQuorum != nil {
			onQuorum()
		}
		h.drainToPFS(img, cap)
	}, onFailed)
}

// drainFromBuffer asynchronously pushes a staged image down to the
// server group (and onward to the PFS).  The drain is owned by the
// buffer, not the writing process: rank death leaves it running, buffer
// death cancels it.
func (h *Hierarchy) drainFromBuffer(buf *nodeBuffer, img *Image, cap simnet.Rate) {
	span := h.hub.NextSpan()
	h.emit(obs.Event{Type: obs.EvDrainBegin, Rank: img.Rank, Wave: img.Wave,
		Channel: -1, Node: buf.node, Server: -1, Level: h.srvIdx,
		Bytes: img.StoredBytes(), Span: span})
	var op *StoreOp
	op = h.group.Store(img, buf.node, cap, func() {
		buf.dropDrain(op)
		h.emit(obs.Event{Type: obs.EvDrainEnd, Rank: img.Rank, Wave: img.Wave,
			Channel: -1, Node: buf.node, Server: -1, Level: h.srvIdx,
			Bytes: img.StoredBytes(), Span: span})
		h.drainToPFS(img, cap)
	}, func() {
		// Quorum unreachable at the server level (EvQuorumLost already
		// emitted by the group): the image stays buffer-only.
		buf.dropDrain(op)
	})
	buf.drains = append(buf.drains, op)
}

func (b *nodeBuffer) dropDrain(op *StoreOp) {
	for i, d := range b.drains {
		if d == op {
			b.drains = append(b.drains[:i], b.drains[i+1:]...)
			return
		}
	}
}

// drainToPFS stripes an image from its primary surviving replica server
// onto the PFS targets.  Fully asynchronous; a failed or impossible
// drain is silent (the upper levels still protect the wave).
func (h *Hierarchy) drainToPFS(img *Image, cap simnet.Rate) {
	if h.pfs == nil {
		return
	}
	k := imgKey{img.Rank, img.Wave}
	if h.pfs.images[k] != nil || h.pfs.staging[k] != nil {
		return
	}
	src := h.group.holder(img.Rank, img.Wave)
	if src == nil {
		return
	}
	targets := h.pfs.liveTargets(img.Rank, h.pfs.stripes)
	if len(targets) == 0 {
		return
	}
	img.hold() // the stripe write's
	h.pfs.staging[k] = img
	span := h.hub.NextSpan()
	stored := img.StoredBytes()
	h.emit(obs.Event{Type: obs.EvDrainBegin, Rank: img.Rank, Wave: img.Wave,
		Channel: -1, Node: src.Node, Server: -1, Level: h.pfsIdx,
		Bytes: stored, Span: span})
	h.stripe(src.Node, targets, stored, true, func() {
		delete(h.pfs.staging, k)
		img.holdRead() // the entry's
		img.drop()     // the stripe write's
		h.pfs.images[k] = &pfsImage{img: img, targets: targets}
		h.emit(obs.Event{Type: obs.EvDrainEnd, Rank: img.Rank, Wave: img.Wave,
			Channel: -1, Node: src.Node, Server: -1, Level: h.pfsIdx,
			Bytes: stored, Span: span})
	})
}

// stripe moves total bytes between node and the PFS targets (write: towards
// them) as one flow per target at the per-stripe bandwidth — equal shares,
// the last taking the remainder, none empty — and calls done once every
// stripe has landed.
func (h *Hierarchy) stripe(node int, targets []int, total int64, write bool, done func()) []*simnet.Flow {
	share := total / int64(len(targets))
	if share < 1 {
		share = 1
	}
	remaining := len(targets)
	landed := func() {
		if remaining--; remaining == 0 {
			done()
		}
	}
	flows := make([]*simnet.Flow, len(targets))
	for i, t := range targets {
		sz := share
		if i == len(targets)-1 {
			sz = total - share*int64(len(targets)-1)
			if sz < 1 {
				sz = 1
			}
		}
		src, dst := h.pfs.nodes[t], node
		if write {
			src, dst = dst, src
		}
		flows[i] = h.net.StartFlowCapped(src, dst, sz, PFSStripeBW, landed)
	}
	return flows
}

// hierFetchOp is a restore fetch walking down the hierarchy: the request
// it serves plus whatever leg is in flight.
type hierFetchOp struct {
	hierOp
	rank, wave int
	dstNode    int
	needLogs   bool
	onDone     func(*Image, []*mpi.Packet)
	onFail     func(error)
}

// Fetch restores (rank, wave) for a process restarting on dstNode,
// searching top-down: the node's own buffer (local-device read), then
// the server group, then the PFS stripes.  needLogs adds the wave's
// message logs, which only the server group holds — a buffer or PFS hit
// still fetches logs from the group.  onDone receives the stored image
// itself, not a copy: the caller restores from it and must not write it.
func (h *Hierarchy) Fetch(rank, wave, dstNode int, needLogs bool, onDone func(*Image, []*mpi.Packet), onFail func(error)) Op {
	op := &hierFetchOp{hierOp: hierOp{h: h, read: true}, rank: rank, wave: wave, dstNode: dstNode,
		needLogs: needLogs, onDone: onDone, onFail: onFail}
	if h.bufIdx >= 0 {
		if buf := h.buffers[dstNode]; buf != nil && !buf.dead {
			if img := buf.images[imgKey{rank, wave}]; img != nil {
				op.holdLeg(img)
				op.timer = h.k.After(bufferSetup+bwTime(img.RestoreBytes(), BufferBW), func() {
					op.timer = 0
					if buf.dead {
						// Device died during the read; fall down a level.
						op.dropLeg()
						h.emit(obs.Event{Type: obs.EvReplicaFailover, Rank: rank, Wave: wave,
							Channel: -1, Node: dstNode, Server: -1, Level: h.srvIdx})
						op.fetchLower()
						return
					}
					op.deliver("a buffer read")
				})
				return op
			}
		}
	}
	op.fetchLower()
	return op
}

// deliver completes a fetch whose image, the leg's, came from the buffer
// or the PFS (named by from).  Logs live only on the server level, so a
// restore that needs them still reads them from the group, the image held
// meanwhile; if they are gone the caller cannot replay, same as a plain
// miss.
func (op *hierFetchOp) deliver(from string) {
	img := op.leg
	img.check(op.rank, op.wave, from)
	if !op.needLogs {
		op.done(img, nil)
		return
	}
	op.inner = op.h.group.FetchLogsOnly(op.rank, op.wave, op.dstNode, func(logs []*mpi.Packet) {
		op.done(img, logs)
	}, func(err error) {
		op.dropLeg()
		op.onFail(err)
	})
}

// done hands the image to the caller, whose restore reads it before the
// callback returns, and then lets go of the leg's hold.
func (op *hierFetchOp) done(img *Image, logs []*mpi.Packet) {
	op.leg = nil
	op.onDone(img, logs)
	img.dropRead()
}

func (op *hierFetchOp) fetchLower() {
	op.inner = op.h.group.Fetch(op.rank, op.wave, op.dstNode, op.needLogs, op.onDone, func(err error) {
		if !op.fetchFromPFS() {
			op.onFail(err)
		}
	})
}

// fetchFromPFS reads the image back from its stripes when every target
// holding one is alive.  Returns false (without side effects) when the
// PFS cannot serve the wave.
func (op *hierFetchOp) fetchFromPFS() bool {
	h := op.h
	if h.pfs == nil {
		return false
	}
	k := imgKey{op.rank, op.wave}
	img := h.pfs.readable(k)
	if img == nil {
		return false
	}
	if op.cancelled {
		return true
	}
	targets := h.pfs.images[k].targets
	h.emit(obs.Event{Type: obs.EvReplicaFailover, Rank: op.rank, Wave: op.wave,
		Channel: -1, Node: op.dstNode, Server: -1, Level: h.pfsIdx})
	op.holdLeg(img)
	op.flows = h.stripe(op.dstNode, targets, img.RestoreBytes(), false, func() {
		op.flows = nil
		op.deliver("a PFS read")
	})
	return true
}

// KillBuffer destroys one node's staging buffer: staged images are
// lost, in-flight drains sourced from it are cancelled.  The node's
// ranks keep running.  Returns false if the node had no live buffer
// (no level configured, never written, or already dead).
func (h *Hierarchy) KillBuffer(node int) bool {
	if h.bufIdx < 0 {
		return false
	}
	buf := h.buffers[node]
	if buf == nil || buf.dead {
		return false
	}
	buf.dead = true
	for _, img := range buf.images {
		img.dropRead()
	}
	buf.images = make(map[imgKey]*Image)
	for _, d := range buf.drains {
		d.Cancel()
	}
	buf.drains = nil
	h.emit(obs.Event{Type: obs.EvBufferKilled, Rank: -1, Wave: -1,
		Channel: -1, Node: node, Server: -1, Level: h.bufIdx})
	return true
}

// KillPFSTarget destroys one PFS target: every image with a stripe on
// it becomes unreadable.  Returns false without a PFS level or when the
// target is out of range or already dead.
func (h *Hierarchy) KillPFSTarget(target int) bool {
	if h.pfs == nil || target < 0 || target >= len(h.pfs.dead) || h.pfs.dead[target] {
		return false
	}
	h.pfs.dead[target] = true
	h.emit(obs.Event{Type: obs.EvPFSKilled, Rank: -1, Wave: -1,
		Channel: -1, Node: h.pfs.nodes[target], Server: target, Level: h.pfsIdx})
	return true
}

// StoreLogs ships a wave's message logs to the server group (logs are
// never staged: replay correctness needs them with the replicas).
func (h *Hierarchy) StoreLogs(rank, wave int, pkts []*mpi.Packet, srcNode int, done LogSink) *StoreOp {
	return h.group.StoreLogs(rank, wave, pkts, srcNode, done)
}

// FetchSince delegates to the group: mlog per-rank recovery reads the
// newest server-side image plus all later logs.
func (h *Hierarchy) FetchSince(rank, wave, dstNode int, onDone func(*Image, []*mpi.Packet), onFail func(error)) *FetchOp {
	return h.group.FetchSince(rank, wave, dstNode, onDone, onFail)
}

// LogsSinceUnion delegates to the group.
func (h *Hierarchy) LogsSinceUnion(rank, wave int) []*mpi.Packet {
	return h.group.LogsSinceUnion(rank, wave)
}

// GC reclaims waves older than wave at every level and raises every
// rank's GC line to wave: a record below it is retired once no level
// entry and no fetch leg holds it (see Image).
func (h *Hierarchy) GC(wave int) {
	h.gcLine = max(h.gcLine, wave)
	h.group.GC(wave)
	for _, node := range h.bufNodes {
		h.gcBuffer(h.buffers[node], func(k imgKey) bool { return k.wave < wave })
	}
	h.gcPFS(func(k imgKey) bool { return k.wave < wave })
}

// GCRank reclaims one rank's data older than wave at every level and
// raises the rank's GC line to wave.
func (h *Hierarchy) GCRank(rank, wave int) {
	ri := h.rank(rank)
	ri.line = max(ri.line, wave)
	h.group.GCRank(rank, wave)
	for _, node := range h.bufNodes {
		h.gcBuffer(h.buffers[node], func(k imgKey) bool { return k.rank == rank && k.wave < wave })
	}
	h.gcPFS(func(k imgKey) bool { return k.rank == rank && k.wave < wave })
}

func (h *Hierarchy) gcBuffer(buf *nodeBuffer, drop func(imgKey) bool) {
	if buf == nil || buf.dead {
		return
	}
	for k, img := range buf.images {
		if drop(k) {
			img.dropRead()
			delete(buf.images, k)
		}
	}
}

func (h *Hierarchy) gcPFS(drop func(imgKey) bool) {
	if h.pfs == nil {
		return
	}
	for k, ent := range h.pfs.images {
		if drop(k) {
			ent.img.dropRead()
			delete(h.pfs.images, k)
		}
	}
}
