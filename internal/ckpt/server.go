package ckpt

import (
	"errors"
	"fmt"
	"sort"

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

	images map[imgKey]*Image
	logs   map[imgKey][]*mpi.Packet

	// obs receives image-store and log-ship begin/end events (nil-safe).
	obs *obs.Hub

	// dead is set by Kill: the server stops serving and its data is gone.
	dead bool
	// first and last delimit the transfers in progress, linked in start
	// order so Kill can cancel them and notify their owners
	// deterministically; a transfer that lands unlinks itself in O(1).
	first, last *transfer
}

// TransferSink is the completion target of one store transfer (Receive,
// ReceiveLogs): Stored runs when the copy is on the server, Aborted when
// the server died first — refused outright or killed mid-flight.  At most
// one of them runs, once; neither does after the sender cancels the flow.
// The replica Group hands in a StoreOp's replica entry, so an attempt
// builds no callback of its own.
type TransferSink interface {
	Stored()
	Aborted()
}

// transfer is one in-progress flow the server is an end of, from its start
// until it lands, and its own completion: the flow is handed the transfer
// itself, not a closure over it.
type transfer struct {
	srv        *Server
	flow       *simnet.Flow
	prev, next *transfer // the server's in-progress list

	// A store reports to sink (nil: to no one); what lands is img, or else
	// the log set logs for (rank, wave).
	sink       TransferSink
	img        *Image
	rank, wave int
	logs       []*mpi.Packet
	one        [1]*mpi.Packet // backs logs for a one-record set (mlog)
	bytes      int64
	span       uint64

	// A fetch (the recovery path, cold) hands over through closures.
	onDone, onAbort func()
}

type imgKey struct{ rank, wave int }

// NewServer places checkpoint server index on node of net.
func NewServer(net *simnet.Network, index, node int) *Server {
	return &Server{
		Index:  index,
		Node:   node,
		net:    net,
		images: make(map[imgKey]*Image),
		logs:   make(map[imgKey][]*mpi.Packet),
	}
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
// transfer in progress is cancelled (its onAbort, if any, runs so the
// other end can fail over), and future stores and fetches are refused.
// Abort callbacks run in transfer-start order, deterministically.
func (s *Server) Kill() {
	if s.dead {
		return
	}
	s.dead = true
	s.images = make(map[imgKey]*Image)
	s.logs = make(map[imgKey][]*mpi.Packet)
	tr := s.first
	s.first, s.last = nil, nil
	for tr != nil {
		next := tr.next
		tr.prev, tr.next = nil, nil // see landed
		tr.flow.Cancel()
		switch {
		case tr.sink != nil:
			tr.sink.Aborted()
		case tr.onAbort != nil:
			tr.onAbort()
		}
		tr = next
	}
}

// start begins tr's flow and appends it to the in-progress list, where it
// stays until it lands (a flow its sender cancelled stays until Kill).
func (s *Server) start(tr *transfer, src, dst int, bytes int64, cap simnet.Rate) *simnet.Flow {
	tr.srv = s
	tr.prev = s.last
	if s.last != nil {
		s.last.next = tr
	} else {
		s.first = tr
	}
	s.last = tr
	tr.flow = s.net.StartFlowArg(src, dst, bytes, cap, transferLanded, tr)
	return tr.flow
}

// transferLanded is every transfer's flow completion.
func transferLanded(x any) { x.(*transfer).landed() }

// landed leaves the in-progress list and completes the transfer: a fetch
// hands over, a store puts what it carried on the server and tells its sink.
func (tr *transfer) landed() {
	s := tr.srv
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
	// A finished transfer must not point into the list: its flow lingers
	// in the network's scratch sets and the kernel's dead slots for a
	// while, and through a kept link it would hold every later transfer.
	tr.prev, tr.next = nil, nil
	switch {
	case tr.onDone != nil:
		tr.onDone()
		return
	case tr.img != nil:
		s.images[imgKey{tr.img.Rank, tr.img.Wave}] = tr.img
		s.emit(obs.EvImageStoreEnd, tr.img.Rank, tr.img.Wave, tr.bytes, tr.span)
	default:
		k := imgKey{tr.rank, tr.wave}
		s.logs[k] = append(s.logs[k], tr.logs...)
		s.emit(obs.EvLogShipEnd, tr.rank, tr.wave, tr.bytes, tr.span)
	}
	if tr.sink != nil {
		tr.sink.Stored()
	}
}

// Receive starts the transfer of img from srcNode to the server, paced by
// a sender-side rate ceiling (cap 0 = none, modelling transfers driven by
// a single-threaded daemon).  The returned flow may be cancelled if the
// sender dies.  sink.Stored runs when the image is fully stored; if the
// server dies while the transfer is in flight, sink.Aborted runs instead
// (the replica Group retries elsewhere).  A dead server refuses the
// transfer outright: nil flow, immediate Aborted.  The server keeps the
// pointer it was given — an image is immutable once handed to a store (see
// Image).
func (s *Server) Receive(img *Image, srcNode int, cap simnet.Rate, sink TransferSink) *simnet.Flow {
	if s.dead {
		if sink != nil {
			sink.Aborted()
		}
		return nil
	}
	// One span per replica transfer, closed by the matching end event (or
	// left open if the server dies mid-flight).
	tr := &transfer{sink: sink, img: img, bytes: img.StoredBytes(), span: s.obs.NextSpan()}
	s.emit(obs.EvImageStoreBegin, img.Rank, img.Wave, tr.bytes, tr.span)
	return s.start(tr, srcNode, s.Node, tr.bytes, cap)
}

// ReceiveLogs transfers a set of logged in-transit messages (Vcl channel
// state, or one mlog reception record) for (rank, wave), with the abort
// semantics of Receive.  Logs from several channels may arrive in
// separate calls; they accumulate in arrival order, which preserves
// per-channel FIFO since each channel's log is shipped in one piece.
// Like an image, a packet is kept, not copied: a received payload is
// read-only (mpi.Filter), so the server shares Mlog's and Vcl's packets.
// Only the slice of them is the server's own.
func (s *Server) ReceiveLogs(rank, wave int, pkts []*mpi.Packet, srcNode int, sink TransferSink) *simnet.Flow {
	if s.dead {
		if sink != nil {
			sink.Aborted()
		}
		return nil
	}
	tr := &transfer{sink: sink, rank: rank, wave: wave}
	if len(pkts) == 1 {
		tr.logs = tr.one[:]
	} else {
		tr.logs = make([]*mpi.Packet, len(pkts))
	}
	copy(tr.logs, pkts)
	for _, p := range pkts {
		tr.bytes += p.WireSize()
	}
	tr.span = s.obs.NextSpan()
	s.emit(obs.EvLogShipBegin, rank, wave, tr.bytes, tr.span)
	return s.start(tr, srcNode, s.Node, tr.bytes, 0)
}

// Image returns the stored image for (rank, wave).  It errors instead of
// returning nil: ErrServerDown after a kill, ErrNoImage when the transfer
// never completed or the wave was garbage-collected.
func (s *Server) Image(rank, wave int) (*Image, error) {
	if s.dead {
		return nil, fmt.Errorf("ckpt: server %d, image rank %d wave %d: %w",
			s.Index, rank, wave, ErrServerDown)
	}
	img, ok := s.images[imgKey{rank, wave}]
	if !ok {
		return nil, fmt.Errorf("ckpt: server %d, image rank %d wave %d: %w",
			s.Index, rank, wave, ErrNoImage)
	}
	return img, nil
}

// Logs returns the stored channel-state messages for (rank, wave).
func (s *Server) Logs(rank, wave int) []*mpi.Packet { return s.logs[imgKey{rank, wave}] }

// Has reports whether a complete image for (rank, wave) is stored.
func (s *Server) Has(rank, wave int) bool {
	_, ok := s.images[imgKey{rank, wave}]
	return ok
}

// HasLogs reports whether a log set for (rank, wave) is stored.  Key
// presence is meaningful on its own: Vcl ships a wave's whole channel
// state in one transfer (possibly empty), so the key existing means the
// log set is complete, not partial.
func (s *Server) HasLogs(rank, wave int) bool {
	_, ok := s.logs[imgKey{rank, wave}]
	return ok
}

// GC discards every image and log from waves strictly older than wave —
// the paper's "simple garbage collection reduces the size needed to store
// the checkpoints" once a wave is fully committed.
func (s *Server) GC(wave int) {
	for k := range s.images {
		if k.wave < wave {
			delete(s.images, k)
		}
	}
	for k := range s.logs {
		if k.wave < wave {
			delete(s.logs, k)
		}
	}
}

// GCRank discards one rank's images and logs older than wave —
// uncoordinated checkpointing garbage-collects per process, since each
// rank's recovery line advances independently.
func (s *Server) GCRank(rank, wave int) {
	for k := range s.images {
		if k.rank == rank && k.wave < wave {
			delete(s.images, k)
		}
	}
	for k := range s.logs {
		if k.rank == rank && k.wave < wave {
			delete(s.logs, k)
		}
	}
}

// LogsSince returns every stored log for the rank from waves >= wave, in
// chronological order (wave tags only ever increase, so ascending-wave
// concatenation preserves arrival order).  This is the reception history a
// message-logging recovery replays: messages delivered after snapshot
// `wave`, including any logged under a later, never-committed checkpoint.
func (s *Server) LogsSince(rank, wave int) []*mpi.Packet {
	var tags []int
	for k := range s.logs {
		if k.rank == rank && k.wave >= wave {
			tags = append(tags, k.wave)
		}
	}
	sort.Ints(tags)
	var out []*mpi.Packet
	for _, w := range tags {
		out = append(out, s.logs[imgKey{rank, w}]...)
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
	tr := &transfer{onDone: func() { onDone(img) }, onAbort: onAbort}
	return s.start(tr, s.Node, dstNode, img.RestoreBytes(), 0), nil
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
	tr := &transfer{onDone: func() { onDone(logs) }, onAbort: onAbort}
	return s.start(tr, s.Node, dstNode, size, 0), nil
}
