// Package core defines the checkpointing framework shared by the paper's
// two protocols and the message-logging alternative: waves, markers, commit,
// the one Cadence that starts checkpoints, and the contract between a
// protocol instance (one per MPI process) and the runtime that hosts it.
//
// The three implementations are:
//
//   - core/pcl — the blocking protocol (paper §3 "Pcl", implemented in
//     MPICH2 as the ft-sock and Nemesis channels): markers flush every
//     channel, sends and receives are frozen per channel until the local
//     checkpoint, and no channel state is ever saved.
//   - core/vcl — the non-blocking protocol (paper §3 "Vcl", the MPICH-V
//     implementation of Chandy–Lamport): a process snapshots on the first
//     marker and keeps computing; in-transit messages are logged as the
//     channel state and replayed on restart.
//   - core/mlog — the alternative: uncoordinated checkpoints plus pessimistic
//     message logging, so a failure restarts the failed process alone.
package core

import (
	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
)

// Control opcodes carried in Packet.Tag of KindControl packets.
const (
	// OpCkptDone: a process tells the wave coordinator (rank 0 for Pcl,
	// the checkpoint scheduler for Vcl) that its local checkpoint for
	// Packet.Wave is fully stored.
	OpCkptDone = 1
)

// Host is what a protocol instance needs from the process runtime.  All
// methods are called from event context or the process LP; the kernel
// serializes execution, so no locking is involved.
type Host interface {
	Clock // for the protocol's Cadence: a protocol arms no timer of its own
	// Rank and Size identify the process within the job.
	Rank() int
	Size() int
	// Engine returns the process's communication engine (to re-inject
	// held or replayed packets with Deliver).
	Engine() *mpi.Engine
	// Wire sends a packet directly on the FIFO channel to an endpoint
	// (rank, SchedulerID, ...), bypassing the protocol's own send gate —
	// used for markers, control messages and released delayed sends.  The
	// packet is a value: its header travels in the wire record and its
	// Data or VSize in a body slot, so a marker or control packet
	// allocates nothing (mpi.WireMsg).
	Wire(dst int, p mpi.Packet)
	// TakeCheckpoint captures the local process image for wave
	// (application + engine + the given protocol device state) right now,
	// then transfers it to this rank's checkpoint server in the
	// background while the process continues (the paper's fork-and-
	// pipeline).  onStored runs when the image is fully stored.
	TakeCheckpoint(wave int, dev []byte, onStored func())
	// ShipLogs transfers logged packets for wave to the checkpoint server
	// (Vcl's message connection; mlog's pessimistic log, one record per
	// call) and tells done once they are durable, never before ShipLogs
	// returns.  The store keeps the packets, not the slice: pkts is read
	// only during the call.
	ShipLogs(wave int, pkts []*mpi.Packet, done LogSink)
	// CommitWave records that wave is complete on every server: the
	// recovery line advances and older waves are garbage collected.
	// Called by the wave coordinator only.
	CommitWave(wave int)
	// Obs returns the runtime's observability hub (never panics; a nil
	// hub is a valid no-op emitter).  Protocols emit marker, block/
	// unblock, logging and snapshot events through it.
	Obs() *obs.Hub
}

// LogSink is the completion target of one ShipLogs call, and all a
// protocol learns of the store: it hears LogsStored at most once, when the
// packets are durable.  It is an interface rather than a func so that a
// protocol logging every message (mlog) can pass the record it already
// holds, which keeps its own stored bit, instead of a closure per message;
// the store itself stays the host's, which recycles it once it has settled
// and the host has dropped it.
// LogSinkFunc adapts a func where the call is rare.
type LogSink interface{ LogsStored() }

// LogSinkFunc is a func() as a LogSink.
type LogSinkFunc func()

// LogsStored calls f.
func (f LogSinkFunc) LogsStored() { f() }

// Protocol is one process's checkpointing protocol instance.  It extends
// the device filter (mpi.Filter) with lifecycle hooks.
type Protocol interface {
	mpi.Filter
	// Start runs when the process (fresh or restarted) begins executing:
	// start the Cadence, flush restored delayed sends.
	Start()
	// Stop runs when the process dies, is revoked or the job ends: stop the Cadence.
	Stop()
	// DeviceState serializes protocol-private state into a checkpoint
	// image (Pcl: the delayed send queue).
	DeviceState() []byte
	// Restore loads state from a checkpoint image before Start: dev is
	// the image's DeviceState, logs are the stored channel-state messages
	// to replay (Vcl), lastWave is the committed wave restarted from.
	Restore(dev []byte, logs []*mpi.Packet, lastWave int)
}

// PeerAware is implemented by protocols with single-process recovery
// (message logging): the runtime notifies live processes when a peer has
// been restarted so they can retransmit unacknowledged messages.
type PeerAware interface {
	PeerRestarted(rank int)
}

// Marker builds a checkpoint-wave marker packet.
func Marker(wave int) mpi.Packet {
	return mpi.Packet{Kind: mpi.KindMarker, Wave: wave}
}

// Done builds an OpCkptDone control packet.
func Done(wave int) mpi.Packet {
	return mpi.Packet{Kind: mpi.KindControl, Tag: OpCkptDone, Wave: wave}
}

// None is the checkpoint-free protocol used by baseline runs.
type None struct{ mpi.PassFilter }

// Start is a no-op.
func (None) Start() {}

// Stop is a no-op.
func (None) Stop() {}

// DeviceState returns nil.
func (None) DeviceState() []byte { return nil }

// Restore is a no-op.
func (None) Restore([]byte, []*mpi.Packet, int) {}
