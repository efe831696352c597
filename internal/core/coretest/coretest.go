// Package coretest is a fake core.Host for the protocol packages' tests.
// It drives a protocol state machine directly and records its effects:
// wired packets, checkpoints, log shipments and commits.  A log store
// completes on demand (the test calls OnLog); an image store on demand
// (OnImg), at once (StoreNow) or StoreAfter later in virtual time.
package coretest

import (
	"slices"
	"testing"
	"time"

	"ftckpt/internal/core"
	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// Host is the fake.  Make it with New.
type Host struct {
	K   *sim.Kernel
	Eng *mpi.Engine // set by Run
	// Hub receives the protocol's events; when nil, Obs makes one that
	// collects them into Col.
	Hub *obs.Hub
	Col obs.Collector

	Wired    []*mpi.Packet   // packets sent with Wire, Dst set
	Ckpts    []int           // wave of every TakeCheckpoint
	Commits  []int           // every CommitWave
	LogWaves []int           // wave of every ShipLogs
	Logged   [][]*mpi.Packet // packets of every ShipLogs
	OnImg    []func()        // image stores not yet reported durable
	OnLog    []func()        // log shipments not yet reported durable

	StoreNow   bool     // report every image store durable at once
	StoreAfter sim.Time // > 0: report an image durable that long after it was taken

	rank, size int
}

var _ core.Host = (*Host)(nil)

// New returns a host for rank of a job of size processes.
func New(k *sim.Kernel, rank, size int) *Host { return &Host{K: k, rank: rank, size: size} }

func (h *Host) Rank() int           { return h.rank }
func (h *Host) Size() int           { return h.size }
func (h *Host) Engine() *mpi.Engine { return h.Eng }
func (h *Host) Now() sim.Time       { return h.K.Now() }
func (h *Host) After(d sim.Time, fn func()) sim.EventID {
	return h.K.After(d, fn)
}
func (h *Host) Cancel(id sim.EventID) bool { return h.K.Cancel(id) }
func (h *Host) CommitWave(w int)           { h.Commits = append(h.Commits, w) }

func (h *Host) Obs() *obs.Hub {
	if h.Hub == nil {
		h.Hub = obs.NewHub(&h.Col)
	}
	return h.Hub
}

func (h *Host) Wire(dst int, p mpi.Packet) {
	p.Dst = dst
	h.Wired = append(h.Wired, &p)
}

func (h *Host) TakeCheckpoint(wave int, dev []byte, onStored func()) {
	h.Ckpts = append(h.Ckpts, wave)
	switch {
	case h.StoreNow:
		onStored()
	case h.StoreAfter > 0:
		h.K.After(h.StoreAfter, onStored)
	default:
		h.OnImg = append(h.OnImg, onStored)
	}
}

func (h *Host) ShipLogs(wave int, pkts []*mpi.Packet, done core.LogSink) {
	h.LogWaves = append(h.LogWaves, wave)
	h.Logged = append(h.Logged, slices.Clone(pkts))
	h.OnLog = append(h.OnLog, done.LogsStored)
}

// Run runs body inside an LP that owns a real engine on a one-node
// network, so protocol paths that re-inject packets (Engine.Deliver)
// work, and then runs the kernel to the end.
func (h *Host) Run(tb testing.TB, body func()) {
	tb.Helper()
	net := simnet.New(h.K, simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "t", Nodes: 1, NICBW: 1e9, Latency: time.Microsecond,
	}}})
	fab := mpi.NewFabric(net)
	fab.Place(h.rank, 0)
	h.K.Go("host", func(lp *sim.Proc) {
		h.Eng = mpi.NewEngine(h.rank, h.size, lp, mpi.Profile{}, fab)
		body()
	})
	if err := h.K.Run(); err != nil {
		tb.Fatal(err)
	}
}
