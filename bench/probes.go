package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"ftckpt"
	"ftckpt/internal/ckpt"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
	"ftckpt/internal/obs"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
	"ftckpt/internal/span"
	"ftckpt/internal/sweep"
)

// Probes time calls into one layer's exported functions from outside the
// package.  Each returns host time per operation; the caller runs it
// probeReps times and keeps the median.
const probeReps = 3

type probe struct {
	names []string // metrics the probe yields, in the order run returns them
	run   func(sc scale) ([]float64, error)
}

// one wraps a probe that yields a single metric.
func one(name string, run func(sc scale) (float64, error)) probe {
	return probe{[]string{name}, func(sc scale) ([]float64, error) {
		x, err := run(sc)
		return []float64{x}, err
	}}
}

// ns and us convert a host duration over n operations.
func ns(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
func us(d time.Duration, n int) float64 { return ns(d, n) / 1e3 }

// timeKernel runs a prepared kernel to completion and returns the wall.
func timeKernel(k *sim.Kernel) (time.Duration, error) {
	t := time.Now()
	err := k.Run()
	return time.Since(t), err
}

var probes = []probe{
	{[]string{"sim.event_ns_pop1k", "sim.event_allocs"}, func(sc scale) ([]float64, error) {
		return kernelEvents(1<<10, sc.events)
	}},
	one("sim.event_ns_pop1m", func(sc scale) (float64, error) {
		xs, err := kernelEvents(sc.deepPop, sc.deepPop+sc.events)
		return xs[0], err
	}),
	one("sim.cancel_ns", func(sc scale) (float64, error) {
		// BenchmarkKernelCancel: schedule + cancel, the Advance fast path.
		k := sim.New(1)
		fn := func() {}
		k.After(0, func() {})
		t := time.Now()
		for i := 0; i < sc.events; i++ {
			if !k.Cancel(k.At(sim.Time(i)*time.Microsecond, fn)) {
				return 0, fmt.Errorf("cancel failed")
			}
		}
		return ns(time.Since(t), sc.events), nil
	}),
	one("sim.advance_ns", func(sc scale) (float64, error) {
		// BenchmarkAdvance: one LP parking and waking per virtual step.
		n := sc.events / 4
		k := sim.New(1)
		k.Go("bench", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Advance(time.Microsecond)
			}
		})
		d, err := timeKernel(k)
		return ns(d, n), err
	}),
	one("sim.cond_pingpong_ns", func(sc scale) (float64, error) {
		// BenchmarkCondPingPong: the blocking-receive handoff.
		n := sc.events / 4
		k := sim.New(1)
		a, b := sim.NewCond(k), sim.NewCond(k)
		turn := 0
		k.Go("ping", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				for turn != 0 {
					a.Wait(p)
				}
				turn = 1
				b.Signal()
			}
		})
		k.Go("pong", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				for turn != 1 {
					b.Wait(p)
				}
				turn = 0
				a.Signal()
			}
		})
		d, err := timeKernel(k)
		return ns(d, n), err
	}),
	one("sim.lp_spawn_us", func(sc scale) (float64, error) {
		// Start and finish 1 024 LPs: the launch/teardown cost every
		// small simulation of figures-quick pays per rank.
		const lps = 1024
		t := time.Now()
		k := sim.New(1)
		for i := 0; i < lps; i++ {
			k.Go("lp", func(p *sim.Proc) { p.Yield() })
		}
		err := k.Run()
		return us(time.Since(t), lps), err
	}),

	one("simnet.small_msg_ns", func(sc scale) (float64, error) { return channelSend(sc.events/2, 512, false) }),
	one("simnet.bulk_msg_ns", func(sc scale) (float64, error) { return channelSend(sc.events/16, 64*simnet.KB, true) }),
	one("simnet.flow_ns_1k", flowChurn),

	one("mpi.pingpong_ns", func(sc scale) (float64, error) {
		n := sc.events / 8
		w := mpi.NewWorld(sim.New(1), platform.EthernetCluster(2), platform.PclSock, 2, 1)
		t := time.Now()
		err := w.Run(func(e *mpi.Engine) {
			peer := 1 - e.Rank()
			for i := 0; i < n; i++ {
				if e.Rank() == 0 {
					e.Send(peer, 0, nil, 64)
					e.Recv(peer, 0)
				} else {
					e.Recv(peer, 0)
					e.Send(peer, 0, nil, 64)
				}
			}
		})
		return ns(time.Since(t), n), err
	}),
	one("mpi.match_deep_ns", func(sc scale) (float64, error) {
		// Recv of tag 1 behind 1 024 unexpected tag-0 messages: rank 0
		// first waits for the sentinel, so everything rank 1 sent is
		// already queued when the timed receives scan past the backlog.
		const backlog, n = 1024, 1024
		w := mpi.NewWorld(sim.New(1), platform.EthernetCluster(2), platform.PclSock, 2, 1)
		var d time.Duration
		err := w.Run(func(e *mpi.Engine) {
			if e.Rank() == 1 {
				for i := 0; i < backlog; i++ {
					e.Send(0, 0, nil, 64)
				}
				for i := 0; i < n; i++ {
					e.Send(0, 1, nil, 64)
				}
				e.Send(0, 2, nil, 64)
				return
			}
			e.Recv(1, 2)
			t := time.Now()
			for i := 0; i < n; i++ {
				e.Recv(1, 1)
			}
			d = time.Since(t)
		})
		return ns(d, n), err
	}),
	one("mpi.allreduce_us_np64", func(sc scale) (float64, error) {
		const np = 64
		n := sc.events / 4096
		w := mpi.NewWorld(sim.New(1), platform.EthernetCluster(np/2), platform.PclSock, np, 2)
		t := time.Now()
		err := w.Run(func(e *mpi.Engine) {
			x := []float64{float64(e.Rank())}
			for i := 0; i < n; i++ {
				e.AllreduceF64(mpi.OpSum, x)
			}
		})
		return us(time.Since(t), n), err
	}),
	one("mpi.fabric_flood_ns", func(sc scale) (float64, error) {
		// Fabric.Send all-pairs in one instant, as a Pcl wave's markers
		// leave: every message is parked in the kernel queue at once.
		eps := sc.floodEndpoints
		k := sim.New(1)
		fab := mpi.NewFabric(simnet.New(k, platform.EthernetCluster(eps/2)))
		got := 0
		for id := 0; id < eps; id++ {
			fab.Place(id, id/2)
			fab.Bind(id, func(*mpi.Packet) { got++ })
		}
		k.After(0, func() {
			for src := 0; src < eps; src++ {
				for dst := 0; dst < eps; dst++ {
					if dst != src {
						fab.Send(src, dst, &mpi.Packet{Kind: mpi.KindMarker, Wave: 1})
					}
				}
			}
		})
		d, err := timeKernel(k)
		if want := eps * (eps - 1); err == nil && got != want {
			err = fmt.Errorf("delivered %d of %d markers", got, want)
		}
		return ns(d, eps*(eps-1)), err
	}),

	{[]string{"ckpt.encode_ns_per_kb", "ckpt.decode_ns_per_kb"}, imageCodec},
	{[]string{"ckpt.group_store_us", "ckpt.group_fetch_us"}, groupCycle},
	one("ckpt.hier_cycle_us", hierCycle),

	one("ftpm.launch_us_per_rank", func(sc scale) (float64, error) {
		np := sc.npBig
		t := time.Now()
		_, err := ftpm.NewJob(ftpm.Config{
			NP: np, ProcsPerNode: 2, Protocol: ftpm.ProtoPcl, Interval: btIntervals[np], Servers: 4,
			Topology: platform.EthernetCluster(np/2 + 4 + 1), Profile: platform.PclSock,
			NewProgram: func(rank, size int) mpi.Program { return nas.NewBTModel(nas.BTClassA, rank, size) },
			Seed:       1,
		})
		return us(time.Since(t), np), err
	}),

	one("sweep.dispatch_us_per_point", func(sc scale) (float64, error) {
		points := make([]int, sc.sweepPoints)
		t := time.Now()
		_, err := sweep.Run(context.Background(), points,
			func(context.Context, int, int, sweep.Tracef) (int, error) { return 0, nil },
			sweep.Opts{Jobs: benchJobs()})
		return us(time.Since(t), len(points)), err
	}),
}

// runProbes measures every probe, each under its own span.
func runProbes(tr *tracer, sc scale, v values) error {
	for _, p := range probes {
		end := tr.start("probe " + p.names[0])
		samples := make([][]float64, len(p.names))
		for i := 0; i < probeReps; i++ {
			xs, err := p.run(sc)
			if err != nil {
				end()
				return fmt.Errorf("probe %s: %w", p.names[0], err)
			}
			for j, x := range xs {
				samples[j] = append(samples[j], x)
			}
		}
		end()
		for j, name := range p.names {
			v.set(name, median(samples[j]))
		}
	}
	return nil
}

// kernelEvents is the loop of BenchmarkKernelEvents with a chosen number
// of pending timers: total events pass through the kernel while pop stay
// queued; it returns the wall of Kernel.Run and the heap allocations
// during it, both per event.
func kernelEvents(pop, total int) ([]float64, error) {
	k := sim.New(1)
	remaining := total
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			k.After(sim.Time(1+k.Rand().Intn(1000))*time.Microsecond, tick)
		}
	}
	for i := 0; i < pop && remaining > 0; i++ {
		remaining--
		k.After(sim.Time(1+k.Rand().Intn(1000))*time.Microsecond, tick)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err := timeKernel(k)
	runtime.ReadMemStats(&m1)
	return []float64{ns(d, total), float64(m1.Mallocs-m0.Mallocs) / float64(total)}, err
}

func probeTopo(nodes int) simnet.Topology {
	return simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "bench", Nodes: nodes, NICBW: 100 * float64(simnet.MB), Latency: 50 * time.Microsecond,
	}}}
}

// channelSend is BenchmarkChannelSmall (and, with a rival channel keeping
// the shared NIC busy, BenchmarkChannelBulk): n back-to-back messages
// through one FIFO channel, delivery events included.
func channelSend(n int, size simnet.Bytes, rival bool) (float64, error) {
	k := sim.New(1)
	net := simnet.New(k, probeTopo(4))
	got := 0
	ch := net.NewChannel(0, 1, func(any) { got++ })
	other := net.NewChannel(0, 2, func(any) {})
	k.After(0, func() {
		for i := 0; i < n; i++ {
			ch.Send(i, size)
			if rival {
				other.Send(i, size)
			}
		}
	})
	d, err := timeKernel(k)
	if err == nil && got != n {
		err = fmt.Errorf("delivered %d of %d", got, n)
	}
	return ns(d, n), err
}

// flowChurn keeps 1 000 bulk flows active over 128 nodes; every
// completion starts a replacement, so each flow costs one arrival and one
// departure with the bandwidth re-share both cause.
func flowChurn(sc scale) (float64, error) {
	const concurrent, nodes = 1000, 128
	total := concurrent + sc.events/64
	k := sim.New(1)
	net := simnet.New(k, probeTopo(nodes))
	rng := rand.New(rand.NewSource(1))
	started, done := 0, 0
	var start func()
	start = func() {
		if started == total {
			return
		}
		started++
		src := rng.Intn(nodes)
		dst := (src + 1 + rng.Intn(nodes-1)) % nodes
		net.StartFlow(src, dst, simnet.Bytes(64+rng.Intn(192))*simnet.KB, func() { done++; start() })
	}
	k.After(0, func() {
		for i := 0; i < concurrent; i++ {
			start()
		}
	})
	d, err := timeKernel(k)
	if err == nil && done != total {
		err = fmt.Errorf("completed %d of %d flows", done, total)
	}
	return ns(d, total), err
}

// imagePrograms are the real-kernel states recover-hier-64 checkpoints:
// one cg-real rank of the NP=64 job and one jacobi rank of the NP=16 job.
func imagePrograms() []mpi.Program {
	return []mpi.Program{nas.NewCG(0, 64, 256*64, 12, 80), nas.NewJacobi(0, 16, 16*16, 2000)}
}

// imageCodec times EncodeProgram and DecodeProgram per KB of encoded state.
func imageCodec(sc scale) ([]float64, error) {
	reps := sc.events / 256
	var enc, dec time.Duration
	var kb float64
	for _, p := range imagePrograms() {
		var blob []byte
		var err error
		t := time.Now()
		for i := 0; i < reps; i++ {
			if blob, err = ckpt.EncodeProgram(p); err != nil {
				return nil, err
			}
		}
		enc += time.Since(t)
		t = time.Now()
		for i := 0; i < reps; i++ {
			if _, err = ckpt.DecodeProgram(blob); err != nil {
				return nil, err
			}
		}
		dec += time.Since(t)
		kb += float64(reps) * float64(len(blob)) / 1024
	}
	return []float64{float64(enc.Nanoseconds()) / kb, float64(dec.Nanoseconds()) / kb}, nil
}

func probeImage(rank int, app []byte) *ckpt.Image {
	return &ckpt.Image{Rank: rank, Wave: 1, App: app, Footprint: 1 << 20}
}

// groupCycle stores sc.images images on a four-server group at two
// replicas (quorum 2), then fetches every one back, and returns the host
// time per image of each phase.
func groupCycle(sc scale) ([]float64, error) {
	app, err := ckpt.EncodeProgram(imagePrograms()[0])
	if err != nil {
		return nil, err
	}
	n := sc.images
	nodes := n / 2
	k := sim.New(1)
	net := simnet.New(k, platform.EthernetCluster(nodes+4))
	pool := make([]*ckpt.Server, 4)
	for i := range pool {
		pool[i] = ckpt.NewServer(net, i, nodes+i)
	}
	g := ckpt.NewGroup(net, pool, 2, 2, nil)
	var t0, t1, t2 time.Time
	stored, fetched := 0, 0
	var failure error
	fetchAll := func() {
		t1 = time.Now()
		for r := 0; r < n; r++ {
			g.Fetch(r, 1, r/2, false, func(*ckpt.Image, []*mpi.Packet) {
				if fetched++; fetched == n {
					t2 = time.Now()
				}
			}, func(err error) { failure = err })
		}
	}
	k.Go("store", func(*sim.Proc) {
		t0 = time.Now()
		for r := 0; r < n; r++ {
			g.Store(probeImage(r, app), r/2, 0, func() {
				if stored++; stored == n {
					fetchAll()
				}
			}, func() { failure = fmt.Errorf("store lost its quorum") })
		}
	})
	if err := k.Run(); err != nil {
		return nil, err
	}
	if failure != nil || fetched != n {
		return nil, fmt.Errorf("group cycle: %d of %d fetched: %v", fetched, n, failure)
	}
	return []float64{us(t1.Sub(t0), n), us(t2.Sub(t1), n)}, nil
}

// hierCycle pushes sc.images images through buffer → servers → PFS
// (Hierarchy.Store, the asynchronous drains) and, once the drains have
// settled, fetches each from a node whose buffer does not hold it.
func hierCycle(sc scale) (float64, error) {
	app, err := ckpt.EncodeProgram(imagePrograms()[0])
	if err != nil {
		return 0, err
	}
	n := sc.images
	nodes := n / 2
	k := sim.New(1)
	net := simnet.New(k, platform.EthernetCluster(nodes+4+4))
	pool := make([]*ckpt.Server, 4)
	for i := range pool {
		pool[i] = ckpt.NewServer(net, i, nodes+i)
	}
	g := ckpt.NewGroup(net, pool, 2, 1, nil)
	spec := (&ckpt.Spec{Levels: []ckpt.LevelSpec{
		{Kind: ckpt.LevelBuffer},
		{Kind: ckpt.LevelServers, Servers: 4, Replicas: 2, WriteQuorum: 1},
		{Kind: ckpt.LevelPFS, Targets: 4, Stripes: 2},
	}}).Normalize()
	h := ckpt.NewHierarchy(net, *spec, g, []int{nodes + 4, nodes + 5, nodes + 6, nodes + 7})
	fetched := 0
	var failure error
	k.Go("store", func(*sim.Proc) {
		for r := 0; r < n; r++ {
			h.Store(probeImage(r, app), r/2, 0, nil, func() { failure = fmt.Errorf("store failed") })
		}
	})
	k.After(time.Minute, func() { // long after the last drain landed
		for r := 0; r < n; r++ {
			h.Fetch(r, 1, (r/2+1)%nodes, false,
				func(*ckpt.Image, []*mpi.Packet) { fetched++ },
				func(err error) { failure = err })
		}
	})
	d, err := timeKernel(k)
	if err != nil {
		return 0, err
	}
	if failure != nil || fetched != n {
		return 0, fmt.Errorf("hierarchy cycle: %d of %d fetched: %v", fetched, n, failure)
	}
	return us(d, n), nil
}

// sinkReplay times the two event consumers on a collected stream: the
// streaming Chrome exporter writing to io.Discard, and the span builder
// through Finalize.
func sinkReplay(events []obs.Event, np int, completion time.Duration) (chromeNs, spanNs float64, err error) {
	if len(events) == 0 {
		return 0, 0, fmt.Errorf("no events collected")
	}
	t := time.Now()
	cs := obs.NewChromeStreamSink(io.Discard)
	for _, ev := range events {
		cs.Emit(ev)
	}
	if err := cs.Close(); err != nil {
		return 0, 0, err
	}
	chromeNs = ns(time.Since(t), len(events))
	t = time.Now()
	b := span.NewBuilder(np, string(ftckpt.Pcl))
	for _, ev := range events {
		b.Emit(ev)
	}
	b.Finalize(completion)
	return chromeNs, ns(time.Since(t), len(events)), nil
}

// benchJobs is the concurrency of figures-quick: min(nproc, 4).
func benchJobs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}
