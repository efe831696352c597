package ckpt

import (
	"reflect"
	"testing"
	"time"

	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// hierSetup builds a three-level hierarchy on a five-node network:
// node 0 computes, nodes 1-2 host the replicated servers, nodes 3-4 the
// PFS targets.
func hierSetup(k *sim.Kernel) (*Hierarchy, []*Server) {
	net := simnet.New(k, simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "c", Nodes: 5, NICBW: 100e6, Latency: 50 * time.Microsecond,
	}}})
	pool := []*Server{NewServer(net, 0, 1), NewServer(net, 1, 2)}
	g := NewGroup(net, pool, 2, 2, nil)
	spec := (&Spec{Levels: []LevelSpec{
		{Kind: LevelBuffer},
		{Kind: LevelServers, Servers: 2, Replicas: 2, WriteQuorum: 2},
		{Kind: LevelPFS, Targets: 2, Stripes: 2},
	}}).Normalize()
	return NewHierarchy(net, *spec, g, []int{3, 4}), pool
}

// TestHierarchyCommitAtBufferSpeed pins the staging contract: with a
// buffer level the commit gate fires at local-device speed, orders of
// magnitude before a network store could finish, and the drains then
// populate the lower levels on their own.
func TestHierarchyCommitAtBufferSpeed(t *testing.T) {
	k := sim.New(1)
	h, pool := hierSetup(k)
	var committedAt sim.Time
	k.Go("rank", func(p *sim.Proc) {
		h.Store(testImage(0, 1), 0, 0, func() { committedAt = k.Now() },
			func() { t.Error("store failed with every level alive") })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 1MB at the default 2GB/s buffer plus 200µs setup ≈ 0.7ms; the same
	// image over the 100MB/s NIC would take ≥10ms.
	if committedAt == 0 || committedAt > 2*time.Millisecond {
		t.Fatalf("commit gate fired at %v, want local-buffer speed", committedAt)
	}
	// By quiescence the drains have copied the wave everywhere.
	if !pool[0].Has(0, 1) || !pool[1].Has(0, 1) {
		t.Fatal("drain did not reach the server replicas")
	}
	if h.pfs.readable(imgKey{0, 1}) == nil {
		t.Fatal("drain did not reach the PFS")
	}
}

// TestStoredImageIsShared pins the immutability contract: one image goes
// through buffer → two replicas → PFS, and what every level holds and
// every fetch returns is the stored pointer itself, still equal to what
// was handed to Store.
func TestStoredImageIsShared(t *testing.T) {
	build := func() *Image {
		img := testImage(0, 1)
		img.Device = []byte{1, 2, 3}
		img.Engine = &mpi.EngineImage{CollSeq: 7, Unexpected: []*mpi.Packet{
			{Src: 1, Dst: 0, Kind: mpi.KindPayload, Tag: 5, Data: []byte("in flight")},
		}}
		return img
	}
	img, want := build(), build()
	k := sim.New(1)
	h, pool := hierSetup(k)
	k.Go("rank", func(p *sim.Proc) {
		h.Store(img, 0, 0, nil, func() { t.Error("store failed") })
	})
	fetched := map[string]*Image{}
	fetch := func(level string) {
		h.Fetch(0, 1, 0, false, func(got *Image, _ []*mpi.Packet) { fetched[level] = got },
			func(err error) { t.Errorf("fetch from %s: %v", level, err) })
	}
	// Long after the drains: read each level, killing the one above between
	// reads so the next fetch falls one level further down.
	k.After(500*time.Millisecond, func() {
		key := imgKey{0, 1}
		held := map[string]*Image{"buffer": h.buffers[0].images[key], "pfs": h.pfs.readable(key)}
		held["replica 0"], _ = pool[0].Image(0, 1)
		held["replica 1"], _ = pool[1].Image(0, 1)
		for level, got := range held {
			if got != img {
				t.Errorf("%s holds %p, want the stored pointer %p", level, got, img)
			}
		}
		fetch("buffer")
	})
	k.After(600*time.Millisecond, func() { h.KillBuffer(0); fetch("replica 0") })
	k.After(700*time.Millisecond, func() { pool[0].Kill(); fetch("replica 1") })
	k.After(800*time.Millisecond, func() { pool[1].Kill(); fetch("pfs") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, level := range []string{"buffer", "replica 0", "replica 1", "pfs"} {
		if fetched[level] != img {
			t.Errorf("fetch from %s returned %p, want the stored pointer %p", level, fetched[level], img)
		}
	}
	if !reflect.DeepEqual(img, want) {
		t.Errorf("image changed on its way through the hierarchy:\n got %+v\nwant %+v", img, want)
	}
}

// TestHierarchyRestoreFallsThroughToPFS kills the staging buffer and
// every server replica after the drains finish: the restore must fall
// through both dead levels and come back from the PFS stripes, counted
// as failovers.
func TestHierarchyRestoreFallsThroughToPFS(t *testing.T) {
	k := sim.New(1)
	h, pool := hierSetup(k)
	col := obs.NewCollector()
	h.SetObs(obs.NewHub(col))
	k.Go("rank", func(p *sim.Proc) {
		h.Store(testImage(0, 1), 0, 0, nil, func() { t.Error("store failed") })
	})
	var fetched *Image
	k.After(500*time.Millisecond, func() {
		if !h.KillBuffer(0) {
			t.Error("buffer kill refused")
		}
		pool[0].Kill()
		pool[1].Kill()
		h.Fetch(0, 1, 0, false, func(img *Image, logs []*mpi.Packet) { fetched = img },
			func(err error) { t.Errorf("fetch failed with a live PFS copy: %v", err) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fetched == nil || fetched.Rank != 0 || fetched.Wave != 1 {
		t.Fatalf("fetched %+v", fetched)
	}
	if col.Count(obs.EvReplicaFailover) == 0 {
		t.Error("fall-through to the PFS not reported as a failover")
	}
}

// TestHierarchyPFSStripeLoss kills one stripe target on top of the upper
// levels: the wave becomes unrecoverable and the fetch must fail.
func TestHierarchyPFSStripeLoss(t *testing.T) {
	k := sim.New(1)
	h, pool := hierSetup(k)
	k.Go("rank", func(p *sim.Proc) {
		h.Store(testImage(0, 1), 0, 0, nil, func() { t.Error("store failed") })
	})
	var failErr error
	k.After(500*time.Millisecond, func() {
		h.KillBuffer(0)
		pool[0].Kill()
		pool[1].Kill()
		if !h.KillPFSTarget(0) {
			t.Error("PFS target kill refused")
		}
		h.Fetch(0, 1, 0, false,
			func(img *Image, logs []*mpi.Packet) { t.Error("fetch succeeded with a stripe lost") },
			func(err error) { failErr = err })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if failErr == nil {
		t.Fatal("fetch did not fail")
	}
}

// TestHierarchyBufferKeepsUntilGC pins the buffer's residency: it keeps
// every staged wave (it has no capacity bound) until GC reclaims the
// waves below the recovery line, and GCRank only the one rank's.
func TestHierarchyBufferKeepsUntilGC(t *testing.T) {
	k := sim.New(1)
	h, _ := hierSetup(k)
	for wave := 1; wave <= 3; wave++ {
		k.After(sim.Time(wave)*sim.Time(10*time.Millisecond), func() {
			h.Store(testImage(0, wave), 0, 0, nil, nil)
			h.Store(testImage(1, wave), 0, 0, nil, nil)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	resident := func() (keys []imgKey) {
		for rank := 0; rank < 2; rank++ {
			for wave := 1; wave <= 3; wave++ {
				if h.buffers[0].images[imgKey{rank, wave}] != nil {
					keys = append(keys, imgKey{rank, wave})
				}
			}
		}
		return keys
	}
	if got := resident(); len(got) != 6 {
		t.Fatalf("buffer holds %v, want all six images", got)
	}
	h.GCRank(1, 3)
	if got, want := resident(), []imgKey{{0, 1}, {0, 2}, {0, 3}, {1, 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after GCRank(1, 3) the buffer holds %v, want %v", got, want)
	}
	h.GC(3)
	if got, want := resident(), []imgKey{{0, 3}, {1, 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after GC(3) the buffer holds %v, want %v", got, want)
	}
}
