package ckpt

import (
	"errors"
	"fmt"
	"slices"

	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/simnet"
)

// Sentinel errors for fetch failures.  Callers (the replica Group, the
// process manager) match them with errors.Is to decide between failover
// and degraded stop.
var (
	// ErrServerDown: the checkpoint server was killed; its stored images
	// and logs are lost.
	ErrServerDown = errors.New("ckpt: server is down")
	// ErrNoImage: the server holds no image for the requested (rank, wave).
	ErrNoImage = errors.New("ckpt: no stored image")
)

// Server is one checkpoint server: it stores the local checkpoints of the
// compute processes assigned to it, receiving each image as a pipelined
// network flow (the paper's data connection) and, for Vcl, each channel-
// state log as a separate transfer (the message connection).  Servers are
// event-driven objects placed on a node of the simulated platform.
type Server struct {
	Index int
	Node  int
	net   *simnet.Network

	// ranks holds each rank's stored images and log sets, indexed by
	// rank, so what one rank's GC or replay reads is that rank's alone.
	ranks []rankStore

	// obs receives image-store and log-ship begin/end events (nil-safe).
	obs *obs.Hub

	// dead is set by Kill: the server stops serving and its data is gone.
	dead bool
	// first and last delimit the transfers in progress, linked in start
	// order so Kill can cancel them and notify their owners
	// deterministically; a transfer that lands unlinks itself in O(1).
	first, last *transfer
}

// transfer is one in-progress flow the server is an end of, from its start
// until it lands, and its own completion: the flow is handed the transfer
// itself, not a closure over it.  A store attempt's transfer is part of
// its replica entry (rep), which reports the outcome, so a store allocates
// none; a fetch (the recovery path, cold) allocates a fetch record that
// hands over through closures.
type transfer struct {
	srv        *Server
	flow       *simnet.Flow
	prev, next *transfer // the server's in-progress list
	bytes      int64
	span       uint64

	rep   *replica // a store attempt, or
	fetch *fetch   // a fetch
}

// fetch is a transfer out of the server with its flow and its two
// outcomes, in one allocation.
type fetch struct {
	transfer
	f               simnet.Flow
	onDone, onAbort func()
}

type imgKey struct{ rank, wave int }

// rankStore is one rank's share of a server: its images and its log sets,
// each in ascending wave order.  GC keeps a rank to the few waves its
// recovery line still needs, so a lookup scans from the newest.  An image
// entry is a holder of its record (see Image).
type rankStore struct {
	images []waveImage
	logs   []waveLogs
}

type waveImage struct {
	wave int
	img  *Image
}

type waveLogs struct {
	wave int
	pkts []*mpi.Packet
}

// image returns the rank's image of wave, nil when none is stored.
func (rs rankStore) image(wave int) *Image {
	for i := len(rs.images) - 1; i >= 0; i-- {
		if rs.images[i].wave == wave {
			return rs.images[i].img
		}
	}
	return nil
}

// putImage stores img as the rank's image of wave, holding it, and lets go
// of a different record it replaces (a wave captured again after a
// rollback).
func (rs *rankStore) putImage(wave int, img *Image) {
	i := len(rs.images)
	for i > 0 && rs.images[i-1].wave >= wave {
		i--
	}
	if i < len(rs.images) && rs.images[i].wave == wave {
		if old := rs.images[i].img; old != img {
			img.holdRead()
			rs.images[i].img = img
			old.dropRead()
		}
		return
	}
	img.holdRead()
	rs.images = insert(rs.images, i, waveImage{wave, img})
}

// insert puts e at index i of list: an append when i is the end, as a
// newer wave's entry usually is.
func insert[E any](list []E, i int, e E) []E {
	if i == len(list) {
		return append(list, e)
	}
	return slices.Insert(list, i, e)
}

// logIndex returns where the rank's log set of wave is, or would go, and
// whether it is there.
func (rs rankStore) logIndex(wave int) (int, bool) {
	i := len(rs.logs)
	for i > 0 && rs.logs[i-1].wave >= wave {
		i--
	}
	return i, i < len(rs.logs) && rs.logs[i].wave == wave
}

// gc drops the images and logs of waves older than wave: a prefix of
// each list.
func (rs *rankStore) gc(wave int) {
	n := 0
	for n < len(rs.images) && rs.images[n].wave < wave {
		rs.images[n].img.dropRead()
		n++
	}
	rs.images = slices.Delete(rs.images, 0, n)
	n = 0
	for n < len(rs.logs) && rs.logs[n].wave < wave {
		n++
	}
	rs.logs = slices.Delete(rs.logs, 0, n)
}

// NewServer places checkpoint server index on node of net.
func NewServer(net *simnet.Network, index, node int) *Server {
	return &Server{Index: index, Node: node, net: net}
}

// rank returns rank r's store to read, empty when the server never stored
// for it.
func (s *Server) rank(r int) rankStore {
	if r < 0 || r >= len(s.ranks) {
		return rankStore{}
	}
	return s.ranks[r]
}

// rankForWrite returns rank r's store, growing the index to reach it.
func (s *Server) rankForWrite(r int) *rankStore {
	for len(s.ranks) <= r {
		s.ranks = append(s.ranks, rankStore{})
	}
	return &s.ranks[r]
}

// SetObs attaches the observability hub the server's transfer events go
// to (nil disables).
func (s *Server) SetObs(h *obs.Hub) { s.obs = h }

func (s *Server) emit(t obs.EventType, rank, wave int, bytes int64, span uint64) {
	s.obs.Emit(obs.Event{Type: t, T: s.net.Kernel().Now(), Rank: rank, Wave: wave,
		Channel: -1, Node: -1, Server: s.Index, Bytes: bytes, Span: span})
}

// Alive reports whether the server is serving (not killed).
func (s *Server) Alive() bool { return !s.dead }

// Kill fails the server: every stored image and log is lost, every
// transfer in progress is cancelled (a store attempt is aborted, a fetch's
// onAbort, if any, runs so the other end can fail over), and future
// stores and fetches are refused.  Aborts run in transfer-start order,
// deterministically.
func (s *Server) Kill() {
	if s.dead {
		return
	}
	s.dead = true
	for i := range s.ranks {
		for _, e := range s.ranks[i].images {
			e.img.dropRead()
		}
	}
	s.ranks = nil
	for s.first != nil {
		tr := s.first
		s.unlink(tr)
		tr.flow.Cancel()
		switch {
		case tr.rep != nil:
			tr.rep.abort()
		case tr.fetch.onAbort != nil:
			tr.fetch.onAbort()
		}
	}
}

// start begins tr's flow in f and appends tr to the in-progress list,
// where it stays until it lands, the sender cancels a store attempt, or
// Kill.
func (s *Server) start(tr *transfer, f *simnet.Flow, src, dst int, bytes int64, cap simnet.Rate) *simnet.Flow {
	tr.srv = s
	tr.prev = s.last
	if s.last != nil {
		s.last.next = tr
	} else {
		s.first = tr
	}
	s.last = tr
	tr.flow = s.net.StartFlowArg(f, src, dst, bytes, cap, transferLanded, tr)
	return tr.flow
}

// transferLanded is every transfer's flow completion.
func transferLanded(x any) { x.(*transfer).landed() }

// unlink takes tr out of the in-progress list.  A transfer that left it
// must not point into it: its flow lingers in the network's scratch sets
// for a while, and through a kept link it would hold every later
// transfer.
func (s *Server) unlink(tr *transfer) {
	if tr.prev != nil {
		tr.prev.next = tr.next
	} else {
		s.first = tr.next
	}
	if tr.next != nil {
		tr.next.prev = tr.prev
	} else {
		s.last = tr.prev
	}
	tr.prev, tr.next = nil, nil
}

// landed leaves the in-progress list and completes the transfer: a fetch
// hands over, a store attempt puts what its op carries on the server and
// tells its replica entry, which counts as landed once the callbacks that
// runs have returned (StoreOp.Release).
func (tr *transfer) landed() {
	s := tr.srv
	s.unlink(tr)
	r := tr.rep
	if r == nil {
		tr.fetch.onDone()
		return
	}
	op := r.op
	rank, wave := int(op.rank), int(op.wave)
	if op.img != nil {
		s.rankForWrite(rank).putImage(wave, op.img)
		s.emit(obs.EvImageStoreEnd, rank, wave, tr.bytes, tr.span)
	} else {
		s.storeLogs(rank, wave, op.pkts)
		s.emit(obs.EvLogShipEnd, rank, wave, tr.bytes, tr.span)
	}
	r.stored()
	r.landed = true
}

// storeLogs appends a landed log set to the (rank, wave) it belongs to.
// A (rank, wave) whose first set this is starts with room for as many
// records as the rank's previous wave ended with: an Mlog rank logs one
// record per set, wave after wave, and a slice grown by append alone
// would copy itself several times a wave.
func (s *Server) storeLogs(rank, wave int, pkts []*mpi.Packet) {
	rs := s.rankForWrite(rank)
	i, ok := rs.logIndex(wave)
	if !ok {
		prev := 0
		if i > 0 && rs.logs[i-1].wave == wave-1 {
			prev = len(rs.logs[i-1].pkts)
		}
		rs.logs = insert(rs.logs, i, waveLogs{wave, make([]*mpi.Packet, 0, max(prev, len(pkts)))})
	}
	rs.logs[i].pkts = append(rs.logs[i].pkts, pkts...)
}

// receive starts store attempt r on the server, in flow f: r.op's image,
// paced by the op's sender-side rate ceiling (0 = none, modelling
// transfers driven by a single-threaded daemon), or its log set (Vcl
// channel state, or one mlog reception record).  r.stored runs once the
// copy is on the server; r.abort runs if the server dies first, or at
// once when it is already dead.  Log sets for one (rank, wave) accumulate
// in arrival order, which preserves per-channel FIFO since each channel's
// log is shipped in one piece.  The server keeps the image pointer and
// the packets it is handed, not copies: an image is immutable once handed
// to a store (see Image), and a log record is the protocol's own copy of
// a packet it was lent (mpi.Filter) — a piece of Mlog's record chunk, a
// clone in Vcl's channel log — which nobody writes once shipped, so the
// server shares the records.  Only the slice of them is the server's own.
func (s *Server) receive(r *replica, f *simnet.Flow) {
	if s.dead {
		r.abort()
		return
	}
	// One span per attempt, closed by the matching end event (or left open
	// if the server dies mid-flight).
	op, tr := r.op, &r.transfer
	begin := obs.EvImageStoreBegin
	if op.img != nil {
		tr.bytes = op.img.StoredBytes()
	} else {
		begin, tr.bytes = obs.EvLogShipBegin, 0
		for _, p := range op.pkts {
			tr.bytes += p.WireSize()
		}
	}
	tr.span = s.obs.NextSpan()
	s.emit(begin, int(op.rank), int(op.wave), tr.bytes, tr.span)
	s.start(tr, f, int(op.srcNode), s.Node, tr.bytes, op.cap)
}

// Image returns the stored image for (rank, wave).  It errors instead of
// returning nil: ErrServerDown after a kill, ErrNoImage when the transfer
// never completed or the wave was garbage-collected.
func (s *Server) Image(rank, wave int) (*Image, error) {
	if s.dead {
		return nil, fmt.Errorf("ckpt: server %d, image rank %d wave %d: %w",
			s.Index, rank, wave, ErrServerDown)
	}
	img := s.rank(rank).image(wave)
	if img == nil {
		return nil, fmt.Errorf("ckpt: server %d, image rank %d wave %d: %w",
			s.Index, rank, wave, ErrNoImage)
	}
	return img, nil
}

// Logs returns the stored channel-state messages for (rank, wave).
func (s *Server) Logs(rank, wave int) []*mpi.Packet {
	rs := s.rank(rank)
	if i, ok := rs.logIndex(wave); ok {
		return rs.logs[i].pkts
	}
	return nil
}

// Has reports whether a complete image for (rank, wave) is stored.
func (s *Server) Has(rank, wave int) bool {
	return s.rank(rank).image(wave) != nil
}

// HasLogs reports whether a log set for (rank, wave) is stored.  Key
// presence is meaningful on its own: Vcl ships a wave's whole channel
// state in one transfer (possibly empty), so the key existing means the
// log set is complete, not partial.
func (s *Server) HasLogs(rank, wave int) bool {
	_, ok := s.rank(rank).logIndex(wave)
	return ok
}

// GC discards every image and log from waves strictly older than wave —
// the paper's "simple garbage collection reduces the size needed to store
// the checkpoints" once a wave is fully committed.
func (s *Server) GC(wave int) {
	for i := range s.ranks {
		s.ranks[i].gc(wave)
	}
}

// GCRank discards one rank's images and logs older than wave —
// uncoordinated checkpointing garbage-collects per process, since each
// rank's recovery line advances independently.
func (s *Server) GCRank(rank, wave int) {
	if rank < len(s.ranks) {
		s.ranks[rank].gc(wave)
	}
}

// LogsSince returns every stored log for the rank from waves >= wave, in
// chronological order (wave tags only ever increase, so ascending-wave
// concatenation preserves arrival order).  This is the reception history a
// message-logging recovery replays: messages delivered after snapshot
// `wave`, including any logged under a later, never-committed checkpoint.
func (s *Server) LogsSince(rank, wave int) []*mpi.Packet {
	var out []*mpi.Packet
	for _, e := range s.rank(rank).logs {
		if e.wave >= wave {
			out = append(out, e.pkts...)
		}
	}
	return out
}

// FetchImage transfers the stored image for (rank, wave) to dstNode and
// hands onDone the stored pointer itself (read-only, like every image past
// a store).  onAbort runs if the server dies mid-transfer, so a replica
// Group can fail over to the next copy.  A missing image or a dead server
// is an error (ErrNoImage / ErrServerDown), never a panic: with
// replication the caller fails over, without it the job stops in degraded
// mode.
func (s *Server) FetchImage(rank, wave, dstNode int, onDone func(*Image), onAbort func()) (*simnet.Flow, error) {
	img, err := s.Image(rank, wave)
	if err != nil {
		return nil, err
	}
	return s.startFetch(dstNode, img.RestoreBytes(), func() { onDone(img) }, onAbort), nil
}

// FetchLogs transfers the stored logs for (rank, wave) to dstNode.
// Coordinated recovery replays exactly the committed wave's channel state
// (allSince false: later, aborted waves' logs describe messages the
// rolled-back senders will regenerate); message logging, where peers do
// not roll back, replays the whole reception history from the wave on
// (allSince true).  The server must be alive; a replica holding the image
// but not the logs is possible (the two are separate transfers), which is
// why the Group picks image and log sources independently.
func (s *Server) FetchLogs(rank, wave, dstNode int, allSince bool, onDone func([]*mpi.Packet), onAbort func()) (*simnet.Flow, error) {
	if s.dead {
		return nil, fmt.Errorf("ckpt: server %d, logs rank %d wave %d: %w",
			s.Index, rank, wave, ErrServerDown)
	}
	var logs []*mpi.Packet
	if allSince {
		logs = s.LogsSince(rank, wave)
	} else {
		logs = s.Logs(rank, wave)
	}
	var size int64
	for _, p := range logs {
		size += p.WireSize()
	}
	return s.startFetch(dstNode, size, func() { onDone(logs) }, onAbort), nil
}

// startFetch starts a transfer of size bytes from the server to dstNode.
func (s *Server) startFetch(dstNode int, size int64, onDone, onAbort func()) *simnet.Flow {
	x := &fetch{onDone: onDone, onAbort: onAbort}
	x.fetch = x
	return s.start(&x.transfer, &x.f, s.Node, dstNode, size, 0)
}
