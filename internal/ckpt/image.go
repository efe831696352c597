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
// An Image is an immutable value from the moment it is handed to a store.
// The process manager builds it (App, Engine and Device are fresh copies
// out of the live process: EncodeProgram, Engine.CaptureImage and the
// protocol's DeviceState) and passes it to Hierarchy.Store, which makes the
// last writes — the modelled costs Delta/Base/Stored/Restore — before any
// level holds a reference.  After that the node buffer, every replica
// server and the PFS entry share the one pointer, a fetch at any level
// returns that same pointer, and restart only reads it (DecodeProgram,
// Engine.RestoreImage and the protocol's Restore copy into the new
// process).  Nothing may write through an *Image obtained from a store.
// Log packets are shared the same way: Server.ReceiveLogs keeps the
// received packets it is handed, which the receiving engine holds too and
// nobody writes (mpi.Filter), and a replay delivers clones of them.
package ckpt

import (
	"encoding/binary"
	"fmt"

	"ftckpt/internal/mpi"
)

// Image is one process's local checkpoint for one wave.  Its builder sets
// Rank through Done, Hierarchy.Store sets Delta through Restore on entry,
// and from then on the image — the bytes App, Device and Engine point to
// included — is shared and read-only (see the package comment).
type Image struct {
	Rank int
	Wave int
	// App is the encoded Program (EncodeProgram): its kind's name and its
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
}

// Bytes returns the modelled size of the image on the wire and on the
// server: the process footprint plus live engine/device state.
func (im *Image) Bytes() int64 {
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

// EncodeProgram serializes a Program for an image: the name its kind was
// registered under (mpi.RegisterProgram), then its state (mpi.AppendState).
func EncodeProgram(p mpi.Program) ([]byte, error) {
	name, ok := mpi.ProgramName(p)
	if !ok {
		return nil, fmt.Errorf("ckpt: encoding program: %T is not registered", p)
	}
	return mpi.AppendState(mpi.AppendState(nil, name), p), nil
}

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
