package mlog

import (
	"testing"

	"ftckpt/internal/core"
	"ftckpt/internal/core/coretest"
	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
)

// benchHost is the fake host without its bookkeeping: the log sink is kept
// as handed over (no bound method value), acks are dropped, no event is
// collected — so allocs/op is the protocol's own.
type benchHost struct {
	*coretest.Host
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
	h := &benchHost{Host: coretest.New(sim.New(1), 1, 2)}
	h.Hub = obs.NewHub()
	m := New(h, 0)
	h.Run(b, func() {
		m.Start()
		p := &mpi.Packet{Src: 0, Kind: mpi.KindPayload, Tag: 5, VSize: 4 << 10}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.PSeq = uint64(i + 1)
			m.InPacket(p)
			h.sink.LogsStored()
			p = h.Eng.Recv(0, 5)
		}
	})
}
