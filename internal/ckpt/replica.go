package ckpt

import (
	"fmt"
	"sort"

	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// Group is a replicated checkpoint store over a pool of servers.  Each
// rank's images and logs go to a replica set of Replicas servers starting
// at PrimaryOf(rank) and wrapping around the pool; a store counts as
// durable once Quorum replicas acknowledge, and fetches fail over to the
// next live replica when one is dead or incomplete.  With Replicas = 1
// and Quorum = 1 the Group degenerates to the paper's single-copy model.
//
// The quorum argument: a wave only commits once Quorum image (and, for
// logging protocols, log) copies are on stable storage, so recovery needs
// any one of them.  Stores that were in flight when a replica died are
// retried with backoff (bounded by MaxRetries); if enough replicas die
// that the quorum is unreachable the wave simply never commits — the
// previous recovery line still protects the job.
type Group struct {
	servers []*Server
	net     *simnet.Network

	// Replicas is the copies kept per image/log set; Quorum is how many
	// must acknowledge before a store reports durable (1 ≤ Quorum ≤
	// Replicas).
	Replicas int
	Quorum   int
	// PrimaryOf maps a rank to its primary replica's server index.
	PrimaryOf func(rank int) int
	// MaxRetries bounds re-shipping attempts per replica after an aborted
	// store; Backoff is the delay before each retry.
	MaxRetries int
	Backoff    sim.Time

	// free holds the log ops their trackers released (StoreOp.Release),
	// for StoreLogs to take before it allocates.
	free []*StoreOp

	obs *obs.Hub
}

// NewGroup builds a replicated store over servers.  replicas is clamped
// to the pool size, quorum to [1, replicas].  primaryOf nil means
// rank % len(servers).
func NewGroup(net *simnet.Network, servers []*Server, replicas, quorum int, primaryOf func(int) int) *Group {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(servers) {
		replicas = len(servers)
	}
	if quorum < 1 {
		quorum = 1
	}
	quorum = min(quorum, replicas)
	if primaryOf == nil {
		n := len(servers)
		primaryOf = func(rank int) int { return rank % n }
	}
	return &Group{
		servers:   servers,
		net:       net,
		Replicas:  replicas,
		Quorum:    quorum,
		PrimaryOf: primaryOf,
	}
}

// SetObs attaches the hub failover/retry/quorum-lost events go to.
func (g *Group) SetObs(h *obs.Hub) { g.obs = h }

func (g *Group) emit(t obs.EventType, rank, wave, server int) {
	g.obs.Emit(obs.Event{Type: t, T: g.net.Kernel().Now(), Rank: rank, Wave: wave,
		Channel: -1, Node: -1, Server: server, Span: g.obs.NextSpan()})
}

// replica returns the i-th server (0 ≤ i < Replicas) of the replica set
// whose primary is server index primary — PrimaryOf(rank) for a rank's set.
func (g *Group) replica(primary, i int) *Server {
	return g.servers[(primary+i)%len(g.servers)]
}

// holder returns the first live replica holding the image for (rank,
// wave), nil when none does.
func (g *Group) holder(rank, wave int) *Server {
	p := g.PrimaryOf(rank)
	for i := 0; i < g.Replicas; i++ {
		if srv := g.replica(p, i); srv.Alive() && srv.Has(rank, wave) {
			return srv
		}
	}
	return nil
}

// GC garbage-collects waves older than wave on every server in the pool.
func (g *Group) GC(wave int) {
	for _, srv := range g.servers {
		srv.GC(wave)
	}
}

// GCRank garbage-collects one rank's data older than wave on its
// replica set.
func (g *Group) GCRank(rank, wave int) {
	p := g.PrimaryOf(rank)
	for i := 0; i < g.Replicas; i++ {
		g.replica(p, i).GCRank(rank, wave)
	}
}

// LogSink is told that a replicated log store reached its write quorum.
// core.LogSink has the same method, so a protocol's record passes through
// the host to the store unwrapped.
type LogSink interface{ LogsStored() }

// StoreOp is one replicated store in progress — of an image, or of a log
// set — and the completion target of its own replica transfers.  It
// satisfies the same cancellation contract as a single flow: Cancel aborts
// every replica transfer and pending retry (copies already stored stay
// stored; GC reclaims them).  An op, its replica entries and their first
// flows are one allocation for up to two replicas (newStoreOp), and a log
// op its tracker released comes back for the next StoreLogs (Release), so
// a logged message costs no object once the free list is warm.
type StoreOp struct {
	g *Group

	// What is shipped and who hears of the outcome: sink hears of the
	// quorum (a log set's LogSink, or an image's onQuorum as a quorumFunc),
	// and an image's onFailed of its loss.  The log set is the op's own: a
	// one-record set lives in one, so a logged message costs no slice.
	img      *Image
	cap      simnet.Rate
	onFailed func()
	pkts     []*mpi.Packet
	one      [1]*mpi.Packet
	sink     LogSink

	// replicas is the per-replica state, primary first, allocated with
	// the op for up to two replicas.
	replicas []replica

	// rank, wave and srcNode are int32 beside the counters, which keeps
	// a one-replica op with its flow in the 352-byte size class.
	rank, wave, srcNode int32
	acks                int32
	failed              int32
	quorumHit           bool
	lost                bool
	cancelled           bool
}

// replica is one replica's share of a StoreOp: the current attempt's
// transfer — the server, the flow (nil when idle) and what the server
// links while the copy is in flight — the pending retry (0 when none) and
// the retries left.  The entry itself is what the server reports the
// attempt's outcome to and what the retry timer fires on.  The first
// attempt's flow lives in the entry; a retry starts a fresh one, because
// an aborted flow whose last byte had left still has its delivery pending,
// and that delivery reads the flow.  aborted and landed are what Release
// asks of the entry: whether an attempt was ever aborted, and whether the
// landing callback of its copy has returned.
type replica struct {
	transfer
	op      *StoreOp
	timer   sim.EventID
	retries int32
	aborted bool
	landed  bool
	first   simnet.Flow
}

// quorumFunc is an image store's onQuorum as the op's sink.
type quorumFunc func()

func (f quorumFunc) LogsStored() { f() }

// storeOp1 and storeOp2 are an op with its replica entries inline.
type storeOp1 struct {
	op  StoreOp
	rep [1]replica
}

type storeOp2 struct {
	op  StoreOp
	rep [2]replica
}

// newStoreOp allocates an op sized to the group's replica count: the op
// and its entries in one object for one or two replicas, a slice of its
// own beside the op for more.  Every op of a group has that shape, so a
// released log op serves any later StoreLogs of the group.
func (g *Group) newStoreOp() *StoreOp {
	switch g.Replicas {
	case 1:
		x := new(storeOp1)
		x.op.g, x.op.replicas = g, x.rep[:]
		return &x.op
	case 2:
		x := new(storeOp2)
		x.op.g, x.op.replicas = g, x.rep[:]
		return &x.op
	}
	return &StoreOp{g: g, replicas: make([]replica, g.Replicas)}
}

// Store replicates img from srcNode across the rank's replica set,
// calling onQuorum once Quorum copies are durable.  If replica deaths
// make the quorum unreachable (after bounded retries), onFailed runs
// instead — the wave will not commit, which is the graceful-degradation
// path: the job continues under its previous recovery line.
func (g *Group) Store(img *Image, srcNode int, cap simnet.Rate, onQuorum, onFailed func()) *StoreOp {
	op := g.newStoreOp()
	op.rank, op.wave, op.srcNode = int32(img.Rank), int32(img.Wave), int32(srcNode)
	op.img, op.cap, op.onFailed = img, cap, onFailed
	img.hold() // until the op settles
	if onQuorum != nil {
		op.sink = quorumFunc(onQuorum)
	}
	op.start()
	return op
}

// StoreLogs replicates a log set (Vcl channel state for a wave, or one
// mlog pessimistic log record) with the same quorum semantics as Store;
// done (may be nil) hears of the quorum.  The op copies the set, so pkts
// is read only during the call.  The op is one the group's free list
// holds, when there is one: whoever tracks it hands it back with Release.
func (g *Group) StoreLogs(rank, wave int, pkts []*mpi.Packet, srcNode int, done LogSink) *StoreOp {
	var op *StoreOp
	if n := len(g.free); n > 0 {
		op = g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
	} else {
		op = g.newStoreOp()
	}
	op.rank, op.wave, op.srcNode, op.sink = int32(rank), int32(wave), int32(srcNode), done
	op.pkts = append(op.one[:0], pkts...)
	op.start()
	return op
}

// start ships every replica's first attempt, each in the entry's own flow.
func (op *StoreOp) start() {
	g := op.g
	p := g.PrimaryOf(int(op.rank))
	for i := range op.replicas {
		r := &op.replicas[i]
		r.srv, r.rep, r.op, r.retries = g.replica(p, i), r, op, int32(g.MaxRetries)
	}
	for i := range op.replicas {
		r := &op.replicas[i]
		r.attempt(&r.first)
	}
}

// Settled reports that nothing is left to cancel: every replica has
// acknowledged or failed for good, or the store was cancelled.  No
// callback runs after that, so whoever tracks the op to cancel it on the
// sender's death can drop it.
func (op *StoreOp) Settled() bool {
	return op.cancelled || op.lastReplica()
}

// Release is the op's last holder letting go of it: nothing may use the
// op afterwards.  A log op goes back to its group's free list for the
// next StoreLogs if nothing else can still reach it: it was never
// cancelled, and every replica stored on its first attempt and its
// landing callback has returned.  An aborted or cancelled attempt's flow
// may still have its delivery pending, which reads the flow, and a
// landing callback still running reads the op once its sink returns.
// Any other op, and an image op always, is left to the garbage collector.
func (op *StoreOp) Release() {
	if op.img != nil || op.cancelled {
		return
	}
	for i := range op.replicas {
		if r := &op.replicas[i]; r.aborted || !r.landed {
			return
		}
	}
	g, reps := op.g, op.replicas
	clear(reps)
	*op = StoreOp{g: g, replicas: reps}
	g.free = append(g.free, op)
}

// attempt ships the replica's copy (current attempt) in flow f.
func (r *replica) attempt(f *simnet.Flow) {
	if !r.op.cancelled {
		r.srv.receive(r, f)
	}
}

// stored: the replica holds its copy.
func (r *replica) stored() {
	op := r.op
	r.flow = nil
	op.acks++
	last := op.lastReplica()
	if !op.quorumHit && int(op.acks) >= op.g.Quorum {
		op.quorumHit = true
		if op.sink != nil {
			op.sink.LogsStored()
		}
	}
	if last {
		op.img.drop()
	}
}

// lastReplica reports that every replica has acknowledged or failed for
// good: the op settles, and an image store lets go of its image once the
// callbacks have run.  It is read before them, because a callback may
// cancel the op, and Cancel lets go of the image of an op that has not
// settled.
func (op *StoreOp) lastReplica() bool { return int(op.acks+op.failed) == len(op.replicas) }

// abort: the replica died before or during the transfer; re-schedule
// the attempt after the backoff, or mark the replica failed once its
// retries are exhausted.
func (r *replica) abort() {
	op := r.op
	r.flow, r.aborted = nil, true
	if op.cancelled {
		return
	}
	if r.retries <= 0 {
		op.replicaFailed()
		return
	}
	r.retries--
	op.g.emit(obs.EvStoreRetry, int(op.rank), int(op.wave), r.srv.Index)
	r.timer = op.g.net.Kernel().AfterArg(op.g.Backoff, replicaRetry, r)
}

func replicaRetry(x any) {
	r := x.(*replica)
	r.timer = 0
	r.attempt(new(simnet.Flow))
}

func (op *StoreOp) replicaFailed() {
	op.failed++
	last := op.lastReplica()
	if !op.quorumHit && !op.lost && len(op.replicas)-int(op.failed) < op.g.Quorum {
		op.lost = true
		op.g.emit(obs.EvQuorumLost, int(op.rank), int(op.wave), -1)
		if op.onFailed != nil {
			op.onFailed()
		}
	}
	if last {
		op.img.drop()
	}
}

// Cancel aborts the store: live transfers are cancelled, pending retries
// dropped, no further callbacks run.  Used when the sender itself dies.
// An image store lets go of its image here unless it had settled already.
func (op *StoreOp) Cancel() {
	if op.cancelled {
		return
	}
	op.cancelled = true
	k := op.g.net.Kernel()
	for i := range op.replicas {
		r := &op.replicas[i]
		if r.flow != nil {
			r.flow.Cancel()
			r.flow = nil
			r.srv.unlink(&r.transfer)
		}
		if r.timer != 0 {
			k.Cancel(r.timer)
			r.timer = 0
		}
	}
	if !op.lastReplica() {
		op.img.drop()
	}
}

// FetchOp is one replicated fetch in progress (image plus, when the
// protocol needs them, logs — sourced independently, since image and log
// transfers land on replicas separately).
type FetchOp struct {
	g          *Group
	rank, wave int
	dstNode    int
	onDone     func(*Image, []*mpi.Packet)
	onFail     func(error)

	primary   int    // the rank's primary replica; the set is walked by index
	img       *Image // held from the image transfer's start to onDone
	logs      []*mpi.Packet
	union     bool // logs are a multi-replica union: sort + dedup at the end
	remaining int
	failedErr error
	cancelled bool
	flows     []*simnet.Flow
}

// Fetch recovers (rank, wave) onto dstNode from the replica set: the
// image from the first live replica holding it, the wave's channel-state
// logs (needLogs, i.e. Vcl) independently from the first live replica
// holding those.  A replica dying mid-transfer triggers failover to the
// next copy (EvReplicaFailover); when no live replica holds a needed
// part, onFail receives an error wrapping ErrNoImage naming the rank and
// wave — the caller decides between retrying (copies may still be in
// flight to live replicas) and a degraded stop.
func (g *Group) Fetch(rank, wave, dstNode int, needLogs bool, onDone func(*Image, []*mpi.Packet), onFail func(error)) *FetchOp {
	op := &FetchOp{
		g: g, rank: rank, wave: wave, dstNode: dstNode,
		onDone: onDone, onFail: onFail,
		primary:   g.PrimaryOf(rank),
		remaining: 1,
	}
	if needLogs {
		op.remaining++
		op.fetchLogs(0, false)
	}
	op.fetchImage(0)
	return op
}

// FetchSince recovers (rank, wave) with message-logging semantics: the
// image fails over like Fetch; the reception history is the union of
// LogsSince across every live replica, deduplicated by (Src, PSeq).  The
// union is safe — only quorum-acknowledged log records must survive, and
// any message whose log died un-acknowledged is regenerated by its
// (never rolled back) sender and deduplicated by the receiver's PSeq
// filter on delivery.
func (g *Group) FetchSince(rank, wave, dstNode int, onDone func(*Image, []*mpi.Packet), onFail func(error)) *FetchOp {
	op := &FetchOp{
		g: g, rank: rank, wave: wave, dstNode: dstNode,
		onDone: onDone, onFail: onFail,
		primary:   g.PrimaryOf(rank),
		remaining: 1,
		union:     true,
	}
	// One log transfer per live replica; deaths mid-transfer just shrink
	// the union.
	var live []*Server
	for i := 0; i < g.Replicas; i++ {
		if srv := g.replica(op.primary, i); srv.Alive() {
			live = append(live, srv)
		}
	}
	op.remaining += len(live)
	for _, srv := range live {
		part := func(pkts []*mpi.Packet) {
			if op.cancelled {
				return
			}
			op.logs = append(op.logs, pkts...)
			op.partDone()
		}
		skip := func() {
			if op.cancelled {
				return
			}
			op.partDone()
		}
		if fl, err := srv.FetchLogs(rank, wave, dstNode, true, part, skip); err == nil {
			op.flows = append(op.flows, fl)
		} else {
			op.partDone()
		}
	}
	op.fetchImage(0)
	return op
}

// fetchImage tries replica i onwards for the image.  A fetch that failed
// or was cancelled starts no transfer and fails over nowhere: Fetch tries
// the image after its logs may already have failed, and fail cancels a
// transfer's flow but leaves it in its server's in-progress list, whose
// kill still runs its onAbort.  fetchLogs is guarded alike.
func (op *FetchOp) fetchImage(i int) {
	if op.cancelled || op.failedErr != nil {
		return
	}
	for ; i < op.g.Replicas; i++ {
		srv := op.g.replica(op.primary, i)
		img := srv.rank(op.rank).image(op.wave) // nil: dead, or holding no copy
		if img == nil {
			continue
		}
		next := i + 1
		img.holdRead()
		op.img = img
		// Cannot fail: the server is alive and holds the image.
		fl, _ := srv.FetchImage(op.rank, op.wave, op.dstNode,
			func(img *Image) {
				if op.cancelled {
					return
				}
				img.check(op.rank, op.wave, "a replica fetch")
				if op.failedErr != nil {
					// The fetch failed while this transfer was under
					// way: nothing waits for the image.
					op.dropImage()
					return
				}
				op.partDone()
			},
			func() { // replica died mid-transfer: fail over
				if op.cancelled || op.failedErr != nil {
					return
				}
				op.dropImage()
				op.g.emit(obs.EvReplicaFailover, op.rank, op.wave, srv.Index)
				op.fetchImage(next)
			})
		if i > 0 {
			op.g.emit(obs.EvReplicaFailover, op.rank, op.wave, srv.Index)
		}
		op.flows = append(op.flows, fl)
		return
	}
	op.fail(fmt.Errorf("ckpt: no live replica holds image for rank %d wave %d: %w",
		op.rank, op.wave, ErrNoImage))
}

// fetchLogs tries replica i onwards for the committed wave's log set.
func (op *FetchOp) fetchLogs(i int, failover bool) {
	if op.cancelled || op.failedErr != nil {
		return
	}
	for ; i < op.g.Replicas; i++ {
		srv := op.g.replica(op.primary, i)
		if !srv.Alive() || !srv.HasLogs(op.rank, op.wave) {
			continue
		}
		next := i + 1
		fl, err := srv.FetchLogs(op.rank, op.wave, op.dstNode, false,
			func(pkts []*mpi.Packet) {
				if op.cancelled {
					return
				}
				op.logs = pkts
				op.partDone()
			},
			func() {
				if op.cancelled || op.failedErr != nil {
					return
				}
				op.g.emit(obs.EvReplicaFailover, op.rank, op.wave, srv.Index)
				op.fetchLogs(next, true)
			})
		if err != nil {
			continue
		}
		if i > 0 || failover {
			op.g.emit(obs.EvReplicaFailover, op.rank, op.wave, srv.Index)
		}
		op.flows = append(op.flows, fl)
		return
	}
	op.fail(fmt.Errorf("ckpt: no live replica holds logs for rank %d wave %d: %w",
		op.rank, op.wave, ErrNoImage))
}

func (op *FetchOp) partDone() {
	op.remaining--
	if op.remaining == 0 && op.failedErr == nil {
		if op.union {
			// mlog union: order by (Src, PSeq) — per-channel FIFO is what
			// replay needs; cross-channel order is immaterial (the engine
			// matches receives by source) and sorting makes the merged
			// union deterministic regardless of which replicas
			// contributed — then drop the copies several replicas logged.
			sortLogs(op.logs)
			op.logs = DedupLogs(op.logs)
		}
		// The hold passes to the callback, which restores from the image
		// before it returns.
		img := op.img
		op.img = nil
		if op.onDone != nil {
			op.onDone(img, op.logs)
		}
		img.dropRead()
	}
}

// dropImage lets go of the image held for a transfer that will not
// deliver it.
func (op *FetchOp) dropImage() {
	op.img.dropRead()
	op.img = nil
}

func (op *FetchOp) fail(err error) {
	if op.failedErr != nil || op.cancelled {
		return
	}
	op.failedErr = err
	for _, fl := range op.flows {
		fl.Cancel()
	}
	op.flows = nil
	op.dropImage()
	if op.onFail != nil {
		op.onFail(err)
	}
}

// Settled reports that nothing is left to cancel: the fetch delivered,
// failed or was cancelled.
func (op *FetchOp) Settled() bool {
	return op.cancelled || op.failedErr != nil || op.remaining == 0
}

// Cancel aborts the fetch; no further callbacks run.
func (op *FetchOp) Cancel() {
	if op.cancelled {
		return
	}
	op.cancelled = true
	for _, fl := range op.flows {
		fl.Cancel()
	}
	op.flows = nil
	op.dropImage()
}

// FetchLogsOnly recovers just (rank, wave)'s committed channel-state logs
// onto dstNode, with the same per-replica failover as Fetch.  The storage
// hierarchy uses it when the image itself came from a different level (the
// node-local buffer or the PFS): logs are only ever kept on the server
// level, so a restore sourcing its image elsewhere still fetches the wave's
// logs here.
func (g *Group) FetchLogsOnly(rank, wave, dstNode int, onDone func([]*mpi.Packet), onFail func(error)) *FetchOp {
	op := &FetchOp{
		g: g, rank: rank, wave: wave, dstNode: dstNode,
		onDone: func(_ *Image, logs []*mpi.Packet) {
			if onDone != nil {
				onDone(logs)
			}
		},
		onFail:    onFail,
		primary:   g.PrimaryOf(rank),
		remaining: 1,
	}
	op.fetchLogs(0, false)
	return op
}

// LogsSinceUnion returns the deduplicated union of LogsSince across the
// rank's live replicas, ordered by (Src, PSeq) — the synchronous
// (no-transfer) variant used when recovery already runs next to the data.
func (g *Group) LogsSinceUnion(rank, wave int) []*mpi.Packet {
	var out []*mpi.Packet
	p := g.PrimaryOf(rank)
	for i := 0; i < g.Replicas; i++ {
		if srv := g.replica(p, i); srv.Alive() {
			out = append(out, srv.LogsSince(rank, wave)...)
		}
	}
	sortLogs(out)
	return DedupLogs(out)
}

// sortLogs orders by (Src, PSeq).  The key is total over the surviving
// records: duplicates (the same sender's packet logged on several
// replicas) compare equal, but they are identical records and DedupLogs
// keeps exactly one, so replica enumeration order cannot leak into the
// replayed stream.
func sortLogs(logs []*mpi.Packet) {
	sort.SliceStable(logs, func(i, j int) bool {
		if logs[i].Src != logs[j].Src {
			return logs[i].Src < logs[j].Src
		}
		return logs[i].PSeq < logs[j].PSeq
	})
}

// DedupLogs removes consecutive (Src, PSeq) duplicates from a sorted
// union (records the same sender logged on several replicas).
func DedupLogs(logs []*mpi.Packet) []*mpi.Packet {
	out := logs[:0]
	for i, p := range logs {
		if i > 0 && p.Src == logs[i-1].Src && p.PSeq == logs[i-1].PSeq {
			continue
		}
		out = append(out, p)
	}
	return out
}
