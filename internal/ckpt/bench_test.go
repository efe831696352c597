package ckpt

import (
	"fmt"
	"testing"
	"time"

	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// The in-package twins of bench's ckpt.encode_ns_per_kb,
// ckpt.decode_ns_per_kb, ckpt.group_store_us and ckpt.hier_cycle_us
// probes, plus the per-record log store message logging pays on every
// delivery.  allocs/op is the number to read: the
// simulator is deterministic, so it repeats exactly.

// benchGroup is a four-server pool behind eight compute nodes.
func benchGroup(k *sim.Kernel, replicas, quorum int) (*Group, *simnet.Network) {
	const nodes = 8
	net := simnet.New(k, platform.EthernetCluster(nodes+4+4))
	pool := make([]*Server, 4)
	for i := range pool {
		pool[i] = NewServer(net, i, nodes+i)
	}
	return NewGroup(net, pool, replicas, quorum, nil), net
}

// chain runs b.N stores one after the other, as a rank's pipeline does:
// start(i) begins store i and next begins the following one.
type chain struct {
	b     *testing.B
	k     *sim.Kernel
	i     int
	start func(i int)
}

func (c *chain) next() {
	if c.i++; c.i < c.b.N {
		c.start(c.i)
	}
}

// LogsStored makes the chain a log store's sink.  The next store starts
// in an event of its own, once the landing callback has returned, so the
// op that landed can be released by then (StoreOp.Release).
func (c *chain) LogsStored() { c.k.AfterArg(0, chainNext, c) }

func chainNext(x any) { x.(*chain).next() }

func (c *chain) run(k *sim.Kernel) {
	c.b.ReportAllocs()
	c.k = k
	k.After(0, func() { c.start(0) })
	c.b.ResetTimer()
	if err := k.Run(); err != nil {
		c.b.Fatal(err)
	}
	if c.i != c.b.N {
		c.b.Fatalf("%d of %d stores reached their quorum", c.i, c.b.N)
	}
}

// BenchmarkGroupStore: one image store per op across two replicas,
// acknowledged by both.
func BenchmarkGroupStore(b *testing.B) {
	k := sim.New(1)
	g, _ := benchGroup(k, 2, 2)
	img := testImage(0, 1)
	c := &chain{b: b}
	lost := func() { b.Error("store lost its quorum") }
	c.start = func(i int) { g.Store(img, (i%16)/2, 0, c.next, lost) }
	c.run(k)
}

// BenchmarkGroupStoreLogs: one log record per op — what Mlog.accept ships
// for every received message — at one and at two replicas, each op
// tracked and released once settled, as ftpm's procRun does.
func BenchmarkGroupStoreLogs(b *testing.B) {
	for _, replicas := range []int{1, 2} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			k := sim.New(1)
			g, _ := benchGroup(k, replicas, replicas)
			record := []*mpi.Packet{{Src: 1, Kind: mpi.KindPayload, Tag: 5, VSize: 4 << 10}}
			c := &chain{b: b}
			tr := make(tracker, 0, 1)
			c.start = func(i int) {
				record[0].PSeq = uint64(i + 1)
				tr.drop()
				tr = append(tr, g.StoreLogs(i%16, 1, record, (i%16)/2, c))
			}
			c.run(k)
		})
	}
}

// BenchmarkHierCycle: one image per op through buffer → servers → PFS
// (Hierarchy.Store and its asynchronous drains), fetched back from a node
// whose buffer does not hold it once the drains have settled.
func BenchmarkHierCycle(b *testing.B) {
	b.ReportAllocs()
	k := sim.New(1)
	const ranks, nodes = 16, 8
	g, net := benchGroup(k, 2, 1)
	spec := (&Spec{Levels: []LevelSpec{
		{Kind: LevelBuffer},
		{Kind: LevelServers, Servers: 4, Replicas: 2, WriteQuorum: 1},
		{Kind: LevelPFS, Targets: 4, Stripes: 2},
	}}).Normalize()
	h := NewHierarchy(net, *spec, g, []int{nodes + 4, nodes + 5, nodes + 6, nodes + 7})
	app, _ := EncodeProgram(&toyProgram{Phase: 1, Mem: 1 << 20})
	fetched := 0
	fail := func() { b.Error("store failed") }
	k.Go("cycle", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			rank, wave := i%ranks, i/ranks+1
			h.Store(&Image{Rank: rank, Wave: wave, App: app, Footprint: 1 << 20}, rank/2, 0, nil, fail)
			p.Advance(time.Second) // long after the last drain landed
			h.Fetch(rank, wave, (rank/2+1)%nodes, false,
				func(*Image, []*mpi.Packet) { fetched++ },
				func(err error) { b.Error(err) })
			p.Advance(time.Second)
			if rank == ranks-1 {
				h.GC(wave)
			}
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if fetched != b.N {
		b.Fatalf("%d of %d images fetched", fetched, b.N)
	}
}

// BenchmarkImageCodec: EncodeProgram, then DecodeProgram, of the
// real-kernel states recover-hier-64 checkpoints — one cg-real rank of the
// NP=64 job and one jacobi rank of the NP=16 job — reported per KB of
// encoded state.
func BenchmarkImageCodec(b *testing.B) {
	for _, tc := range []struct {
		name string
		prog mpi.Program
	}{
		{"cg-real", nas.NewCG(0, 64, 256*64, 12, 80)},
		{"jacobi", nas.NewJacobi(0, 16, 16*16, 2000)},
	} {
		blob, err := EncodeProgram(tc.prog)
		if err != nil {
			b.Fatal(err)
		}
		perKB := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(float64(len(blob))/1024), "ns/KB")
		}
		b.Run(tc.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EncodeProgram(tc.prog); err != nil {
					b.Fatal(err)
				}
			}
			perKB(b)
		})
		b.Run(tc.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeProgram(blob); err != nil {
					b.Fatal(err)
				}
			}
			perKB(b)
		})
	}
}
