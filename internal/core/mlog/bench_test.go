package mlog

import (
	"testing"
	"time"

	"ftckpt/internal/core"
	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// benchHost is the fake host without its bookkeeping: the log sink is kept
// as handed over (no bound method value), acks are dropped, no event is
// collected — so allocs/op is the protocol's own.
type benchHost struct {
	fakeHost
	sink core.LogSink
}

func (h *benchHost) ShipLogs(wave int, pkts []*mpi.Packet, done core.LogSink) { h.sink = done }
func (h *benchHost) Wire(dst int, p mpi.Packet)                               {}

// BenchmarkAcceptDeliver: one received message per op through the
// pessimistic pipeline — accepted (Mlog.accept, up to the host's
// ShipLogs), its log stored, delivered to the engine, acknowledged and
// received by the application.  Group.StoreLogs' allocs/op
// (internal/ckpt) is the other half of a logged message.
func BenchmarkAcceptDeliver(b *testing.B) {
	b.ReportAllocs()
	k := sim.New(1)
	h := &benchHost{fakeHost: fakeHost{rank: 1, size: 2, k: k, hub: obs.NewHub()}}
	m := New(h, 0)
	net := simnet.New(k, simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "b", Nodes: 1, NICBW: 1e9, Latency: time.Microsecond,
	}}})
	fab := mpi.NewFabric(net)
	fab.Place(h.rank, 0)
	k.Go("host", func(lp *sim.Proc) {
		h.eng = mpi.NewEngine(h.rank, h.size, lp, mpi.Profile{}, fab)
		m.Start()
		p := &mpi.Packet{Src: 0, Kind: mpi.KindPayload, Tag: 5, VSize: 4 << 10}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.PSeq = uint64(i + 1)
			m.InPacket(p)
			h.sink.LogsStored()
			p = h.eng.Recv(0, 5)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
