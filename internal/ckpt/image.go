// Package ckpt provides process checkpoint images and checkpoint servers.
//
// It is the analogue of the paper's unified checkpointing mechanism (one
// API over Condor, libckpt and BLCR) plus the checkpoint-server component
// shared by MPICH-Vcl and MPICH2-Pcl: servers collect local checkpoints,
// the image transfer is pipelined over the network while computation
// continues (the paper's fork-then-send), and a completed wave's images
// supersede older ones.
//
// A system-level checkpoint saves the whole process memory, so image size
// is dominated by the application's resident set: Image.Bytes() charges
// the Program's declared Footprint plus the serialized engine/protocol
// state actually needed to restore.
//
// An Image is one record, shared by pointer and never copied.  The process
// manager takes it from the hierarchy (Hierarchy.NewImage), fills it out of
// the live process (AppendProgram into the record's own App buffer,
// Engine.CaptureImage and the protocol's DeviceState) and passes it to
// Hierarchy.Store, which makes the last writes — the modelled costs
// Delta/Base/Stored/Restore — before any level holds a reference.  After
// that the node buffer, every replica server and the PFS entry share the one
// pointer, a fetch at any level returns that same pointer, and restart only
// reads it, inside the fetch's callback (DecodeProgram,
// Engine.RestoreImage and the protocol's Restore copy into the new process).
// Nothing may write through an *Image obtained from a store.
//
// A record the hierarchy handed out counts its holders: each level entry
// and each leg in flight (a buffer write, a group store, a drain, a PFS
// stripe, a fetch until its callback returns), and separately how many of
// them read it: the level entries and the fetch legs.  A store leg only
// moves the image: it needs its size, not its bytes.  So once GC or
// GCRank has raised a rank's GC line past a record's wave and its last
// reader lets go, the record is retired: its App buffer goes back to the
// rank's free list at once, for the next capture, and its Engine and
// Device are let go, while Rank, Wave, the pricing fields and the value
// Bytes() had stay for the store legs still moving it.  This is safe
// because the GC line only rises and a restart fetches only at the line,
// never below it; a delivery of a retired record panics, naming the line.
// When the count reaches zero no level can serve the image any more and
// no transfer can deliver it, so the record itself goes back to its
// rank's free list.  A released record reads Wave -1, and every delivery
// checks Rank and Wave, so a count that fell short panics where a restore
// would have read the wrong state.  An image built as a literal has no
// home and is never recycled or retired.
//
// Log packets are shared the same way: a server keeps the log records it
// is handed, which the receiving engine holds too and nobody writes
// (mpi.Filter), and a replay delivers clones of them.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ftckpt/internal/mpi"
)

// Image is one process's local checkpoint for one wave.  Its builder sets
// Rank through Done, Hierarchy.Store sets Delta through Restore on entry,
// and from then on the image — the bytes App, Device and Engine point to
// included — is shared and read-only until its last reader lets it go
// below the rank's GC line, which retires it, or its last holder lets it
// go, which recycles it (see the package comment).  A retired record
// keeps Rank, Wave, Footprint, Done, the pricing fields and its Bytes(),
// and has no App, Engine or Device.
type Image struct {
	Rank int
	Wave int
	// App is the encoded Program (AppendProgram): its kind's name and its
	// exported fields, so its length is a function of the program's state.
	App []byte
	// Engine is the communication-engine state (unconsumed messages,
	// in-flight collective progress).
	Engine *mpi.EngineImage
	// Device is protocol-private state (e.g. Pcl's delayed send queue).
	Device []byte
	// Footprint is the modelled resident memory of the process.
	Footprint int64
	// Done records that the program had already completed when the image
	// was taken (the restarted process only finalizes).
	Done bool
	// Delta marks an incremental image: only the regions dirtied since the
	// full image of wave Base were captured.  The image still carries the
	// complete restorable state (App/Engine/Device are always full); Delta,
	// Stored and Restore only reshape the modelled byte costs.
	Delta bool
	// Base is the wave of the full image this delta chains off (Delta only).
	Base int
	// Stored overrides the modelled bytes shipped and kept per copy when
	// > 0: the dirty-region payload of a delta, and/or the compressed
	// size.  0 means Bytes() (the legacy full-image cost).
	Stored int64
	// Restore overrides the modelled bytes read back at recovery when > 0:
	// a delta restore reads its full base plus the delta chain.  0 means
	// Bytes().
	Restore int64

	// home is the hierarchy whose free list the record returns to, nil
	// for a literal; holds counts its level entries and legs in flight,
	// reads the level entries and fetch legs among them.
	home         *Hierarchy
	holds, reads int32
	// size is what Bytes() returned when the record was retired, 0 while
	// it holds its content.
	size int64
}

// maxFreeImages is how many released records, and apart from them how
// many App buffers, a rank keeps: a rank's levels hold one to three of
// its images at a time, so a capture finds one and the rest go to the
// garbage collector.
const maxFreeImages = 2

// hold adds a holder that moves the record (a store leg); a literal image
// is not counted.
func (im *Image) hold() {
	if im.home != nil {
		im.holds++
	}
}

// holdRead adds a holder that may read the record's content: a level
// entry or a fetch leg.
func (im *Image) holdRead() {
	if im.home != nil {
		im.holds++
		im.reads++
	}
}

// dropRead removes a reader (see holdRead).  The last one retires a
// record whose wave is below its rank's GC line: no fetch may ask for it
// any more, so only store legs still hold it, and they read its size
// alone.  nil is a no-op.
func (im *Image) dropRead() {
	if im == nil || im.home == nil {
		return
	}
	if im.reads--; im.reads == 0 && im.Wave < im.home.line(im.Rank) {
		im.retire()
	}
	im.drop()
}

// retire hands the record's App buffer back to its rank and lets go of
// its Engine and Device, keeping what Bytes() returned for the legs that
// still move it.
func (im *Image) retire() {
	if im.size != 0 {
		return
	}
	im.size = im.Bytes()
	im.home.putApp(im.Rank, im.App)
	im.App, im.Engine, im.Device = nil, nil, nil
}

// drop removes a holder.  The last one returns the record to its rank's
// free list and its App buffer, unless retirement already returned it,
// to the rank's buffers: Wave reads -1 and what the record pointed to is
// let go.  nil is a no-op (a log set's store carries no image).
func (im *Image) drop() {
	if im == nil || im.home == nil {
		return
	}
	if im.holds--; im.holds > 0 {
		return
	}
	if im.holds < 0 {
		panic(fmt.Sprintf("ckpt: image rank %d wave %d released more often than held", im.Rank, im.Wave))
	}
	h := im.home
	h.putApp(im.Rank, im.App)
	*im = Image{Rank: im.Rank, Wave: -1, home: h}
	h.putImage(im)
}

// check panics unless the image is (rank, wave) with its content: a holder
// that reads a record after its count reached zero sees another capture,
// or Wave -1, and one that reads it below the GC line sees it retired.
func (im *Image) check(rank, wave int, holder string) {
	if im.Rank == rank && im.Wave == wave && im.size != 0 {
		panic(fmt.Sprintf("ckpt: %s delivers image rank %d wave %d, retired below the GC line %d: a fetch below the line",
			holder, rank, wave, im.home.line(rank)))
	}
	if im.Rank != rank || im.Wave != wave {
		panic(fmt.Sprintf("ckpt: %s delivers image rank %d wave %d for rank %d wave %d: the record was recycled while held",
			holder, im.Rank, im.Wave, rank, wave))
	}
}

// Bytes returns the modelled size of the image on the wire and on the
// server: the process footprint plus live engine/device state, or of a
// retired record what that was when it was retired.
func (im *Image) Bytes() int64 {
	if im.size != 0 {
		return im.size
	}
	n := im.Footprint + int64(len(im.App)) + int64(len(im.Device)) + 256
	if im.Engine != nil {
		n += im.Engine.StateBytes()
	}
	return n
}

// StoredBytes returns the modelled bytes shipped to and kept by each holder
// of the image: the incremental/compressed payload when Hierarchy.Store
// priced one, the full Bytes() otherwise.
func (im *Image) StoredBytes() int64 {
	if im.Stored > 0 {
		return im.Stored
	}
	return im.Bytes()
}

// RestoreBytes returns the modelled bytes a recovery fetch reads back: a
// delta chain's base-plus-deltas cost when set, the full Bytes() otherwise.
func (im *Image) RestoreBytes() int64 {
	if im.Restore > 0 {
		return im.Restore
	}
	return im.Bytes()
}

// AppendProgram appends p's image encoding to dst: the name its kind was
// registered under (mpi.RegisterProgram), then its state (mpi.AppendState).
// dst grows once, to the encoding's exact length (mpi.StateSize), so a
// record's App buffer with room for the program is reused as it is.
func AppendProgram(dst []byte, p mpi.Program) ([]byte, error) {
	name, ok := mpi.ProgramName(p)
	if !ok {
		return dst, fmt.Errorf("ckpt: encoding program: %T is not registered", p)
	}
	dst = slices.Grow(dst, mpi.StateSize(name)+mpi.StateSize(p))
	return mpi.AppendState(mpi.AppendState(dst, name), p), nil
}

// EncodeProgram serializes a Program into a buffer of its own (see
// AppendProgram).
func EncodeProgram(p mpi.Program) ([]byte, error) { return AppendProgram(nil, p) }

// DecodeProgram reverses EncodeProgram.
func DecodeProgram(b []byte) (mpi.Program, error) {
	var name string
	// The name is a string: an 8-byte length, then its bytes.
	if len(b) < 8 || binary.LittleEndian.Uint64(b) > uint64(len(b)-8) {
		return nil, fmt.Errorf("ckpt: decoding program: %d bytes hold no program name", len(b))
	}
	n := 8 + binary.LittleEndian.Uint64(b)
	if err := mpi.LoadState(b[:n], &name); err != nil {
		return nil, fmt.Errorf("ckpt: decoding program: %w", err)
	}
	p := mpi.NewProgram(name)
	if p == nil {
		return nil, fmt.Errorf("ckpt: decoding program: no program kind %q", name)
	}
	if err := mpi.LoadState(b[n:], p); err != nil {
		return nil, fmt.Errorf("ckpt: decoding program %q: %w", name, err)
	}
	return p, nil
}
