package nas

// Application-level fault tolerance: in-memory partner checkpointing.
//
// Programs that opt in (SetFTEvery > 0) capture an in-memory snapshot of
// their own state every ftEvery iterations, at a globally consistent
// point (right after an iteration's residual/convergence allreduce), and
// exchange it around a ring: rank r sends its blob to (r+1) mod p and
// holds (r-1) mod p's copy.  When the runtime repairs a failed rank in
// place (ULFM-style recovery), the survivors roll back to an agreed
// snapshot level from their own copies and the replacement installs the
// victim's state from its right neighbour — no checkpoint server, no job
// restart.
//
// The state is deliberately unexported (invisible to the protocol
// checkpoint images): it is soft state that rebuilds within one exchange
// period after any rollback, mirroring how diskless in-memory
// checkpointing keeps its buddy copies outside the protocol's recovery
// line.
//
// Consistency: the exchange point sits after an allreduce, so live ranks
// are never more than one snapshot interval apart; keeping the two most
// recent levels (own and partner) guarantees every rank can restore the
// agreed minimum level.  The exchange channel is FIFO, so the blob
// received at a rank's level-k exchange is always the neighbour's level-k
// blob.

import (
	"slices"

	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

// ftTagSnap is the application tag of the partner-snapshot ring exchange
// (Jacobi halo rows use 60/61).
const ftTagSnap = 62

// ftSnap is one held snapshot: the iteration it captures, the virtual
// time it was taken (the recovered-work baseline) and the encoded state.
// blob is the program's own: the exchange that drops a level encodes or
// receives the next one into its buffer.
type ftSnap struct {
	level int // iteration; -1 = empty
	t     sim.Time
	blob  []byte
}

// ftState is the partner-checkpoint bookkeeping embedded (unexported, so
// never serialized into protocol images) in FT-capable programs.  own and
// peer each keep the two most recent levels, oldest first.
type ftState struct {
	every    int // snapshot cadence in iterations; 0 = disabled
	peerRank int // whose state peer holds; 0 also means none (see peerOK)
	peerOK   bool
	own      [2]ftSnap
	peer     [2]ftSnap
}

// SetFTEvery sets the snapshot cadence (0 disables).  The runtime calls
// it after constructing or restoring a program when in-job recovery is
// enabled.
func (f *ftState) SetFTEvery(n int) { f.every = n }

// ftEvery returns the cadence.
func (f *ftState) ftEvery() int { return f.every }

// FTLatest returns the iteration of the newest held own snapshot, -1
// when none exists.
func (f *ftState) FTLatest() int {
	if f.own[1].blob == nil {
		return -1
	}
	return f.own[1].level
}

// FTSnapshotTime returns the virtual time the own snapshot at level was
// taken.
func (f *ftState) FTSnapshotTime(level int) (sim.Time, bool) {
	if s, ok := f.ownSnap(level); ok {
		return s.t, true
	}
	return 0, false
}

// FTPeerLatest returns the newest held snapshot level for rank, -1 when
// this program holds no copy of rank's state.
func (f *ftState) FTPeerLatest(rank int) int {
	if !f.peerOK || f.peerRank != rank || f.peer[1].blob == nil {
		return -1
	}
	return f.peer[1].level
}

// FTPeerSnapshot returns a copy of the held snapshot of rank's state at
// level: the held buffer is rewritten by a later exchange, and the copy
// seeds a replacement for good.
func (f *ftState) FTPeerSnapshot(rank, level int) ([]byte, bool) {
	if !f.peerOK || f.peerRank != rank {
		return nil, false
	}
	for _, s := range f.peer {
		if s.blob != nil && s.level == level {
			return slices.Clone(s.blob), true
		}
	}
	return nil, false
}

func (f *ftState) ownSnap(level int) (ftSnap, bool) {
	for _, s := range f.own {
		if s.blob != nil && s.level == level {
			return s, true
		}
	}
	return ftSnap{}, false
}

// ftTruncate drops snapshots newer than level after a rollback: a
// future-level copy held by only part of the world must not bias the
// next repair's agreement.
func (f *ftState) ftTruncate(level int) {
	for i := range f.own {
		if f.own[i].blob != nil && f.own[i].level > level {
			f.own[i] = ftSnap{}
		}
	}
	for i := range f.peer {
		if f.peer[i].blob != nil && f.peer[i].level > level {
			f.peer[i] = ftSnap{}
		}
	}
}

// ftInstall seeds a freshly spawned replacement with the victim's blob:
// the installed state becomes the sole own snapshot (the partner copy
// rebuilds at the next exchange).
func (f *ftState) ftInstall(level int, t sim.Time, blob []byte) {
	f.own[0] = ftSnap{}
	f.own[1] = ftSnap{level: level, t: t, blob: blob}
	f.peer = [2]ftSnap{}
	f.peerOK = false
}

// ftExchange records encode's output as the own snapshot at iteration it
// and trades copies around the ring (send right, receive left).  encode
// appends into the buffer of the own level the exchange drops, and the
// received copy lands in the buffer of the dropped peer level, so a
// steady exchange allocates nothing.  The call is resumable: the phase
// machine stays in its exchange phase until this returns, so a protocol
// checkpoint taken mid-exchange restores into the same Sendrecv.  Under a
// revoked communicator the exchange aborts without recording partner
// state; the repair machinery handles the rest.
func (f *ftState) ftExchange(e *mpi.Engine, rank, size, it int, encode func(dst []byte) []byte) {
	blob := encode(f.own[0].blob[:0])
	f.own[0], f.own[1] = f.own[1], ftSnap{level: it, t: e.Now(), blob: blob}
	if size == 1 {
		return
	}
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	e.EmitFT(obs.Event{Type: obs.EvAppCkpt, Rank: rank, Wave: it, Channel: right,
		Node: -1, Server: -1, Bytes: int64(len(blob))})
	got, err := e.TrySendrecv(right, ftTagSnap, blob, left, ftTagSnap, f.peer[0].blob[:0])
	if err != nil {
		return
	}
	f.peerRank, f.peerOK = left, true
	f.peer[0], f.peer[1] = f.peer[1], ftSnap{level: it, t: e.Now(), blob: got}
}

// --- blob encoding -------------------------------------------------------
//
// A snapshot is a small struct of exported fields in the state codec's
// layout (mpi.AppendState): an 8-byte word per scalar, then each vector's
// 8-byte length and raw float64 bits.

// snapBuf returns dst emptied when it has room for scalars words plus
// vecs, else an empty buffer of exactly that size, so a blob is allocated
// once at its exact length and a reused one not at all.
func snapBuf(dst []byte, scalars int, vecs ...[]float64) []byte {
	n := 8 * scalars
	for _, v := range vecs {
		n += 8 + 8*len(v)
	}
	if cap(dst) < n {
		return make([]byte, 0, n)
	}
	return dst[:0]
}

// The two real kernels implement the full in-job recovery contract.
var (
	_ mpi.FTProgram = (*Jacobi)(nil)
	_ mpi.FTProgram = (*CG)(nil)
)
