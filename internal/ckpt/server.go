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
	// inflight tracks transfers in progress so Kill can cancel them and
	// notify their owners, in start order (deterministic).
	inflight []*transfer
}

// transfer is one in-progress flow with its abort notification.
type transfer struct {
	flow    *simnet.Flow
	onAbort func()
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
	pending := s.inflight
	s.inflight = nil
	for _, tr := range pending {
		tr.flow.Cancel()
		if tr.onAbort != nil {
			tr.onAbort()
		}
	}
}

// flow starts a transfer the server is one end of and tracks it until it
// lands, so that Kill can cancel it and run onAbort (may be nil).
func (s *Server) flow(src, dst int, bytes int64, cap simnet.Rate, onDone, onAbort func()) *simnet.Flow {
	tr := &transfer{onAbort: onAbort}
	s.inflight = append(s.inflight, tr)
	tr.flow = s.net.StartFlowCapped(src, dst, bytes, cap, func() {
		for i, t := range s.inflight {
			if t == tr {
				s.inflight = append(s.inflight[:i], s.inflight[i+1:]...)
				break
			}
		}
		onDone()
	})
	return tr.flow
}

// Receive starts the transfer of img from srcNode to the server, paced by
// a sender-side rate ceiling (cap 0 = none, modelling transfers driven by
// a single-threaded daemon).  The returned flow may be cancelled if the
// sender dies.  onStored runs when the image is fully stored; if the
// server dies while the transfer is in flight, onAbort runs instead (the
// replica Group retries elsewhere).  A dead server refuses the transfer
// outright: nil flow, immediate onAbort.  The server keeps the pointer it
// was given — an image is immutable once handed to a store (see Image).
func (s *Server) Receive(img *Image, srcNode int, cap simnet.Rate, onStored, onAbort func()) *simnet.Flow {
	if s.dead {
		if onAbort != nil {
			onAbort()
		}
		return nil
	}
	// One span per replica transfer, closed by the matching end event (or
	// left open if the server dies mid-flight).
	sp := s.obs.NextSpan()
	bytes := img.StoredBytes()
	s.emit(obs.EvImageStoreBegin, img.Rank, img.Wave, bytes, sp)
	return s.flow(srcNode, s.Node, bytes, cap, func() {
		s.images[imgKey{img.Rank, img.Wave}] = img
		s.emit(obs.EvImageStoreEnd, img.Rank, img.Wave, bytes, sp)
		if onStored != nil {
			onStored()
		}
	}, onAbort)
}

// ReceiveLogs transfers a set of logged in-transit messages (Vcl channel
// state, or one mlog reception record) for (rank, wave), with the abort
// semantics of Receive.  Logs from several channels may arrive in
// separate calls; they accumulate in arrival order, which preserves
// per-channel FIFO since each channel's log is shipped in one piece.
// Unlike images, packets are copied: Mlog ships the live received packet,
// and Fabric.Send stamps Seq/Dst on whatever it is handed.
func (s *Server) ReceiveLogs(rank, wave int, pkts []*mpi.Packet, srcNode int, onStored, onAbort func()) *simnet.Flow {
	if s.dead {
		if onAbort != nil {
			onAbort()
		}
		return nil
	}
	cp := make([]*mpi.Packet, len(pkts))
	var bytes int64
	for i, p := range pkts {
		cp[i] = p.Clone()
		bytes += p.WireSize()
	}
	sp := s.obs.NextSpan()
	s.emit(obs.EvLogShipBegin, rank, wave, bytes, sp)
	return s.flow(srcNode, s.Node, bytes, 0, func() {
		k := imgKey{rank, wave}
		s.logs[k] = append(s.logs[k], cp...)
		s.emit(obs.EvLogShipEnd, rank, wave, bytes, sp)
		if onStored != nil {
			onStored()
		}
	}, onAbort)
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
	return s.flow(s.Node, dstNode, img.RestoreBytes(), 0, func() { onDone(img) }, onAbort), nil
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
	return s.flow(s.Node, dstNode, size, 0, func() { onDone(logs) }, onAbort), nil
}
