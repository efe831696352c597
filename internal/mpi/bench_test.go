package mpi_test

import (
	"testing"

	"ftckpt/internal/mpi"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
)

// The benchmarks below are the in-tree twins of bench/'s mpi.* probes: same
// platform, profile, process counts and message sizes, with b.N in place of
// the probe's operation count.  (An external test package, because
// platform imports mpi.)

// BenchmarkPingPong is mpi.pingpong_ns: two ranks on two nodes exchanging
// one 64-byte message each way per op through blocking Send/Recv.
func BenchmarkPingPong(b *testing.B) {
	b.ReportAllocs()
	w := mpi.NewWorld(sim.New(1), platform.EthernetCluster(2), platform.PclSock, 2, 1)
	b.ResetTimer()
	err := w.Run(func(e *mpi.Engine) {
		peer := 1 - e.Rank()
		for i := 0; i < b.N; i++ {
			if e.Rank() == 0 {
				e.Send(peer, 0, nil, 64)
				e.Recv(peer, 0)
			} else {
				e.Recv(peer, 0)
				e.Send(peer, 0, nil, 64)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMatchDeep is mpi.match_deep_ns: a Recv of tag 1 behind 1 024
// unexpected tag-0 messages, in worlds of 1 024 timed receives like the
// probe's (the cost of a match depends on the queue behind it, so the
// queue must not grow with b.N).  Rank 0 first waits for the sentinel, so
// everything rank 1 sent is already queued when the timed receives scan
// past the backlog.
func BenchmarkMatchDeep(b *testing.B) {
	b.ReportAllocs()
	const backlog, n = 1024, 1024
	b.StopTimer()
	for left := b.N; left > 0; left -= n {
		recvs := min(n, left)
		w := mpi.NewWorld(sim.New(1), platform.EthernetCluster(2), platform.PclSock, 2, 1)
		err := w.Run(func(e *mpi.Engine) {
			if e.Rank() == 1 {
				for i := 0; i < backlog; i++ {
					e.Send(0, 0, nil, 64)
				}
				for i := 0; i < recvs; i++ {
					e.Send(0, 1, nil, 64)
				}
				e.Send(0, 2, nil, 64)
				return
			}
			e.Recv(1, 2)
			b.StartTimer()
			for i := 0; i < recvs; i++ {
				e.Recv(1, 1)
			}
			b.StopTimer()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllreduce64 is mpi.allreduce_us_np64: one-element sum over 64
// ranks, two per node.
func BenchmarkAllreduce64(b *testing.B) {
	b.ReportAllocs()
	const np = 64
	w := mpi.NewWorld(sim.New(1), platform.EthernetCluster(np/2), platform.PclSock, np, 2)
	b.ResetTimer()
	err := w.Run(func(e *mpi.Engine) {
		x := []float64{float64(e.Rank())}
		for i := 0; i < b.N; i++ {
			e.AllreduceF64(mpi.OpSum, x)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSendrecvRing is the halo exchange's layer number: 16 ranks, two
// per node, each exchanging 1 KB with both ring neighbours per op through
// Sendrecv, as BT's faces do.  resumes/op counts the LP resumes per op: 32
// once every exchange parks its rank once (80 while an exchange parked for
// its send charge, for its match unless it was queued, and for its receive
// charge).
func BenchmarkSendrecvRing(b *testing.B) {
	b.ReportAllocs()
	const np = 16
	w := mpi.NewWorld(sim.New(1), platform.EthernetCluster(np/2), platform.PclSock, np, 2)
	b.ResetTimer()
	err := w.Run(func(e *mpi.Engine) {
		right, left := (e.Rank()+1)%np, (e.Rank()+np-1)%np
		for i := 0; i < b.N; i++ {
			e.Sendrecv(right, 0, nil, 1024, left, 0)
			e.Sendrecv(left, 1, nil, 1024, right, 1)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(w.K.Stats().Resumes)/float64(b.N), "resumes/op")
}
