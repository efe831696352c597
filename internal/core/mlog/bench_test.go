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
// as handed over and told of the store when the loop says so, acks are
// dropped, no event is collected — so allocs/op is the protocol's own.
type benchHost struct {
	*coretest.Host
	sink core.LogSink
}

func (h *benchHost) ShipLogs(wave int, pkts []*mpi.Packet, done core.LogSink) { h.sink = done }
func (h *benchHost) Wire(dst int, p mpi.Packet)                               {}

// acceptDeliver runs n received messages through the pessimistic pipeline
// inside an LP: each is accepted (Mlog.accept, up to the host's ShipLogs),
// its log stored, delivered to the engine, acknowledged and received by
// the application.  before runs once, between a warm-up message and the
// n measured ones; run runs the n.
func acceptDeliver(tb testing.TB, before func(), run func(one func())) {
	h := &benchHost{Host: coretest.New(sim.New(1), 1, 2)}
	h.Hub = obs.NewHub()
	m := New(h, 0)
	h.Run(tb, func() {
		m.Start()
		p := &mpi.Packet{Src: 0, Kind: mpi.KindPayload, Tag: 5, VSize: 4 << 10}
		seq := uint64(0)
		one := func() {
			seq++
			p.PSeq = seq
			m.InPacket(p)
			h.sink.LogsStored()
			*p = h.Eng.Recv(0, 5)
		}
		one()
		before()
		run(one)
	})
}

// BenchmarkAcceptDeliver: one received message per op through the
// pessimistic pipeline.  Group.StoreLogs' allocs/op (internal/ckpt) is
// the other half of a logged message.
func BenchmarkAcceptDeliver(b *testing.B) {
	b.ReportAllocs()
	acceptDeliver(b, b.ResetTimer, func(one func()) {
		for i := 0; i < b.N; i++ {
			one()
		}
	})
}

// TestAcceptDeliverAllocs pins BenchmarkAcceptDeliver: a logged message
// allocates nothing of its own in the protocol — its record is a 36th of
// a chunk (Mlog.keep), which AllocsPerRun's whole-number mean rounds to
// 0, and the record is its store's sink.
func TestAcceptDeliverAllocs(t *testing.T) {
	acceptDeliver(t, func() {}, func(one func()) {
		if n := testing.AllocsPerRun(1000, one); n != 0 {
			t.Errorf("%v allocations per logged message, want 0", n)
		}
	})
}
