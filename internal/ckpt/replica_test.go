package ckpt

import (
	"errors"
	"slices"
	"testing"
	"time"
	"unsafe"

	"ftckpt/internal/mpi"
	"ftckpt/internal/obs"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

func testGroup(k *sim.Kernel, servers, replicas, quorum int) (*Group, []*Server) {
	net := simnet.New(k, simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "c", Nodes: servers + 2, NICBW: 100e6, Latency: 50 * time.Microsecond,
	}}})
	pool := make([]*Server, servers)
	for i := range pool {
		pool[i] = NewServer(net, i, i+2)
	}
	g := NewGroup(net, pool, replicas, quorum, nil)
	return g, pool
}

func testImage(rank, wave int) *Image {
	app, _ := EncodeProgram(&toyProgram{Phase: 1, Mem: 1 << 20})
	return &Image{Rank: rank, Wave: wave, App: app, Footprint: 1 << 20}
}

func TestGroupStoreQuorum(t *testing.T) {
	k := sim.New(1)
	g, pool := testGroup(k, 3, 2, 1)
	var quorumAt sim.Time
	k.Go("w", func(p *sim.Proc) {
		g.Store(testImage(0, 1), 0, 0, func() { quorumAt = k.Now() }, func() {
			t.Error("quorum reported lost with every server alive")
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if quorumAt == 0 {
		t.Fatal("quorum never reached")
	}
	// Replicas 2 with primary rank%3=0: copies land on servers 0 and 1.
	if !pool[0].Has(0, 1) || !pool[1].Has(0, 1) {
		t.Fatal("replica set incomplete after run")
	}
	if pool[2].Has(0, 1) {
		t.Fatal("image leaked past the replica set")
	}
}

func TestGroupFetchFailover(t *testing.T) {
	k := sim.New(1)
	g, pool := testGroup(k, 2, 2, 2)
	col := obs.NewCollector()
	g.SetObs(obs.NewHub(col))
	var fetched *Image
	k.Go("w", func(p *sim.Proc) {
		g.Store(testImage(0, 1), 0, 0, func() {
			pool[0].Kill() // primary dies after the wave is durable
			g.Fetch(0, 1, 0, false, func(img *Image, logs []*mpi.Packet) {
				fetched = img
			}, func(err error) {
				t.Errorf("fetch failed despite a live replica: %v", err)
			})
		}, nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fetched == nil || fetched.Rank != 0 || fetched.Wave != 1 {
		t.Fatalf("fetched %+v", fetched)
	}
	if col.Count(obs.EvReplicaFailover) == 0 {
		t.Fatal("failover not reported")
	}
}

func TestGroupFetchAllReplicasDead(t *testing.T) {
	k := sim.New(1)
	g, pool := testGroup(k, 2, 2, 2)
	var failErr error
	k.Go("w", func(p *sim.Proc) {
		g.Store(testImage(0, 1), 0, 0, func() {
			pool[0].Kill()
			pool[1].Kill()
			g.Fetch(0, 1, 0, false, func(img *Image, logs []*mpi.Packet) {
				t.Error("fetch succeeded with every replica dead")
			}, func(err error) { failErr = err })
		}, nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(failErr, ErrNoImage) {
		t.Fatalf("want ErrNoImage, got %v", failErr)
	}
}

// idle reports whether no server of pool has a transfer in progress.
func idle(pool []*Server) bool {
	for _, srv := range pool {
		if srv.first != nil {
			return false
		}
	}
	return true
}

// TestFetchFailedOnLogsStartsNoImage: when no replica holds the wave's
// logs, Fetch fails at once, and the image transfer it would have started
// next never starts: nobody waits for it.
func TestFetchFailedOnLogsStartsNoImage(t *testing.T) {
	k := sim.New(1)
	g, pool := testGroup(k, 2, 2, 2)
	var failErr error
	k.Go("w", func(p *sim.Proc) {
		g.Store(testImage(0, 1), 0, 0, func() {
			g.Fetch(0, 1, 0, true, func(*Image, []*mpi.Packet) {
				t.Error("fetch delivered without the wave's logs")
			}, func(err error) { failErr = err })
			if !idle(pool) {
				t.Error("a failed fetch still started a transfer")
			}
		}, nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(failErr, ErrNoImage) {
		t.Fatalf("want ErrNoImage, got %v", failErr)
	}
}

// TestKillAfterFetchFailedDoesNotFailOver: a server kill that fails a
// fetch (the only copy of the logs dies with it) also aborts the fetch's
// image transfer from that server, whose flow the failure cancelled; that
// abort must not fail over to the other replica's image.
func TestKillAfterFetchFailedDoesNotFailOver(t *testing.T) {
	k := sim.New(1)
	g, pool := testGroup(k, 2, 2, 2)
	col := obs.NewCollector()
	g.SetObs(obs.NewHub(col))
	var failErr error
	k.Go("w", func(p *sim.Proc) {
		g.Store(testImage(0, 1), 0, 0, func() {
			pool[0].storeLogs(0, 1, []*mpi.Packet{{Src: 1, Kind: mpi.KindPayload, Data: []byte{1}}})
			g.Fetch(0, 1, 0, true, func(*Image, []*mpi.Packet) {
				t.Error("fetch delivered without the wave's logs")
			}, func(err error) { failErr = err })
			pool[0].Kill() // aborts the log transfer, then the image transfer
			if !idle(pool) {
				t.Error("the failed fetch failed over and started a transfer")
			}
		}, nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(failErr, ErrNoImage) {
		t.Fatalf("want ErrNoImage, got %v", failErr)
	}
	if n := col.Count(obs.EvReplicaFailover); n != 1 {
		t.Errorf("%d failovers, want 1: the log transfer's", n)
	}
}

func TestGroupKillMidTransferAborts(t *testing.T) {
	// A server killed while a store is in flight cancels the transfer;
	// with no retries left the quorum is immediately lost.
	k := sim.New(1)
	g, pool := testGroup(k, 1, 1, 1)
	lost := false
	k.Go("w", func(p *sim.Proc) {
		g.Store(testImage(0, 1), 0, 0, func() {
			t.Error("store acknowledged on a killed server")
		}, func() { lost = true })
	})
	k.After(time.Millisecond, func() { pool[0].Kill() }) // 1MB at 100MB/s ≈ 10ms
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !lost {
		t.Fatal("quorum loss not reported")
	}
	if pool[0].Has(0, 1) {
		t.Fatal("killed server retained the partial image")
	}
}

func TestGroupStoreRetryAfterBackoff(t *testing.T) {
	// Retries re-ship to the replica; against a permanently dead server
	// they burn out and the quorum is lost — but each attempt is counted.
	k := sim.New(1)
	g, pool := testGroup(k, 1, 1, 1)
	g.MaxRetries = 2
	g.Backoff = 5 * time.Millisecond
	lost := false
	var lostAt sim.Time
	k.Go("w", func(p *sim.Proc) {
		pool[0].Kill()
		g.Store(testImage(0, 1), 0, 0, nil, func() {
			lost = true
			lostAt = k.Now()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !lost {
		t.Fatal("quorum loss not reported")
	}
	if lostAt < 10*time.Millisecond {
		t.Fatalf("quorum lost at %v, want after two 5ms backoffs", lostAt)
	}
}

func TestGroupLogsSinceUnion(t *testing.T) {
	// Each replica holds an overlapping slice of the reception history;
	// the union deduplicates by (Src, PSeq) and orders per sender.
	k := sim.New(1)
	g, pool := testGroup(k, 2, 2, 1)
	pkt := func(src int, pseq uint64) *mpi.Packet {
		return &mpi.Packet{Src: src, Dst: 0, Kind: mpi.KindPayload, PSeq: pseq, Data: []byte{byte(pseq)}}
	}
	k.Go("w", func(p *sim.Proc) {
		storeLogs(pool[0], 0, 1, []*mpi.Packet{pkt(1, 1), pkt(1, 2), pkt(2, 1)}, 0)
		storeLogs(pool[1], 0, 1, []*mpi.Packet{pkt(1, 2), pkt(1, 3), pkt(2, 1)}, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := g.LogsSinceUnion(0, 0)
	want := []struct {
		src  int
		pseq uint64
	}{{1, 1}, {1, 2}, {1, 3}, {2, 1}}
	if len(got) != len(want) {
		t.Fatalf("union has %d records, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Src != w.src || got[i].PSeq != w.pseq {
			t.Fatalf("union[%d] = src %d pseq %d, want %d %d", i, got[i].Src, got[i].PSeq, w.src, w.pseq)
		}
	}
	// A dead replica contributes nothing.
	pool[0].Kill()
	if n := len(g.LogsSinceUnion(0, 0)); n != 3 {
		t.Fatalf("union after kill has %d records, want 3", n)
	}
}

func TestServerFetchErrors(t *testing.T) {
	k := sim.New(1)
	_, pool := testGroup(k, 1, 1, 1)
	srv := pool[0]
	if _, err := srv.FetchImage(0, 9, 0, nil, nil); !errors.Is(err, ErrNoImage) {
		t.Fatalf("missing image: %v", err)
	}
	srv.Kill()
	if _, err := srv.FetchImage(0, 9, 0, nil, nil); !errors.Is(err, ErrServerDown) {
		t.Fatalf("dead server: %v", err)
	}
	if _, err := srv.FetchLogs(0, 9, 0, false, nil, nil); !errors.Is(err, ErrServerDown) {
		t.Fatalf("dead server logs: %v", err)
	}
	if _, err := srv.Image(0, 9); !errors.Is(err, ErrServerDown) {
		t.Fatalf("dead server image: %v", err)
	}
}

// TestKillAbortsInStartOrderAfterOutOfOrderCompletion pins Kill's contract
// on the in-progress list: transfers leave it when they land, in whatever
// order that is, and the ones still there are aborted in the order they
// started.
func TestKillAbortsInStartOrderAfterOutOfOrderCompletion(t *testing.T) {
	k := sim.New(1)
	srv := NewServer(testNet(k), 0, 3)
	var stored, aborted []int
	// Transfers 2 and 4 are small enough to land before the kill.
	for i, size := range []int64{40 << 20, 1 << 10, 30 << 20, 2 << 10, 20 << 20, 10 << 20} {
		id := i + 1
		store(srv, &Image{Rank: id, Wave: 1, Footprint: size}, i%3,
			func() { stored = append(stored, id) },
			func() { aborted = append(aborted, id) })
	}
	var started []*transfer
	for tr := srv.first; tr != nil; tr = tr.next {
		started = append(started, tr)
	}
	k.After(5*time.Millisecond, srv.Kill)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// A transfer that left the list keeps no link into it: anything still
	// holding its flow would otherwise hold every later transfer too.
	for i, tr := range started {
		if tr.prev != nil || tr.next != nil {
			t.Errorf("transfer %d still linked after it landed or was aborted", i+1)
		}
	}
	if !slices.Equal(stored, []int{2, 4}) {
		t.Errorf("stored %v, want [2 4]", stored)
	}
	if !slices.Equal(aborted, []int{1, 3, 5, 6}) {
		t.Errorf("aborted %v, want [1 3 5 6]: start order, and none for a transfer that landed", aborted)
	}
}

// TestCancelWithTransferAndRetryPending: the sender dies while one of its
// three replica transfers is in flight and another replica waits out a
// retry backoff.  Cancel takes down exactly those — the flow never lands,
// the timer never fires, nobody is called — and that is what Settled
// tracks: an op that has run its course has nothing to cancel.
func TestCancelWithTransferAndRetryPending(t *testing.T) {
	k := sim.New(1)
	g, pool := testGroup(k, 3, 3, 3)
	g.MaxRetries = 3
	g.Backoff = 50 * time.Millisecond
	col := obs.NewCollector()
	hub := obs.NewHub(col)
	g.SetObs(hub)
	for _, srv := range pool {
		srv.SetObs(hub)
	}
	calls := 0
	called := func() { calls++ }
	var early, op *StoreOp
	k.Go("w", func(p *sim.Proc) {
		early = g.StoreLogs(0, 1, []*mpi.Packet{{Src: 1, Kind: mpi.KindPayload, PSeq: 1}}, 0, nil)
		p.Advance(5 * time.Millisecond)
		if !early.Settled() {
			t.Error("a log set stored on every replica is not settled")
		}
		// Three rival flows into server 1 hold its replica transfer to a
		// quarter of the NIC, so server 0's copy lands well before it.
		for _, src := range []int{1, 2, 4} {
			g.net.StartFlow(src, pool[1].Node, 64<<20, nil)
		}
		op = g.Store(testImage(0, 2), 0, 0, called, called)
		p.Advance(time.Millisecond)
		pool[2].Kill() // replica 2 backs off until 56ms
		p.Advance(29 * time.Millisecond)
		if !pool[0].Has(0, 2) || pool[1].Has(0, 2) || op.Settled() {
			t.Errorf("at the cancel: server 0 has %v, server 1 has %v, settled %v; want one stored, one in flight, one backing off",
				pool[0].Has(0, 2), pool[1].Has(0, 2), op.Settled())
		}
		op.Cancel()
		early.Cancel() // settled: nothing to do
		if !op.Settled() {
			t.Error("a cancelled op is not settled")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pool[1].Has(0, 2) {
		t.Error("the cancelled transfer landed")
	}
	if n := col.Count(obs.EvStoreRetry); n != 1 {
		t.Errorf("%d store retries, want the 1 scheduled before the cancel: the backoff timer fired", n)
	}
	if n := col.Count(obs.EvImageStoreBegin); n != 3 {
		t.Errorf("%d image transfers started, want 3", n)
	}
	if calls != 0 || col.Count(obs.EvQuorumLost) != 0 {
		t.Errorf("%d callbacks and %d quorum-lost events after a cancel", calls, col.Count(obs.EvQuorumLost))
	}
	if len(pool[0].Logs(0, 1)) != 1 {
		t.Error("cancelling a settled op touched what it stored")
	}
}

// countSink counts the quorums it hears of.
type countSink int

func (c *countSink) LogsStored() { *c++ }

// TestStoreLogsOwnsRecord: StoreLogs copies the set it is handed, so the
// caller may overwrite its slot as soon as the call returns — Mlog ships
// every record from one reused slot.  A retry after the slot changed still
// ships the original: replica 1's server dies mid-transfer and comes back
// empty before the backoff ends (a reboot, set by hand: a killed server
// stays dead in this model), so the retry lands, and both replicas store
// the original packet.  The sink hears of the quorum once, when the first
// copy lands.
func TestStoreLogsOwnsRecord(t *testing.T) {
	k := sim.New(1)
	g, pool := testGroup(k, 2, 2, 1)
	g.MaxRetries = 1
	g.Backoff = time.Millisecond
	col := obs.NewCollector()
	g.SetObs(obs.NewHub(col))
	orig := &mpi.Packet{Src: 1, Kind: mpi.KindPayload, PSeq: 7, VSize: 4 << 10}
	var sink countSink
	k.Go("w", func(p *sim.Proc) {
		slot := []*mpi.Packet{orig}
		g.StoreLogs(0, 1, slot, 0, &sink)
		slot[0] = &mpi.Packet{Src: 2, Kind: mpi.KindPayload, PSeq: 99}
		p.Advance(20 * time.Microsecond) // both copies in flight (≈ 90 µs each)
		pool[1].Kill()
		p.Advance(100 * time.Microsecond)
		pool[1].dead = false
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := col.Count(obs.EvStoreRetry); n != 1 {
		t.Errorf("%d store retries, want 1", n)
	}
	for i, srv := range pool {
		if logs := srv.Logs(0, 1); len(logs) != 1 || logs[0] != orig {
			t.Errorf("replica %d stores %v, want the original packet", i, logs)
		}
	}
	if sink != 1 {
		t.Errorf("the sink heard of the quorum %d times, want 1", sink)
	}
}

// TestRetryAfterLastByteStartsFreshFlow: the server dies after the last
// byte of a store attempt left but before its delivery, which is still
// pending and reads the cancelled flow.  The retry, with no backoff, runs
// before that delivery and must start a flow of its own: one that reused
// the first attempt's would clear its cancelled mark, and the stale
// delivery would land the record a second time.  The retry lands exactly
// once and the sink hears of the quorum once.
func TestRetryAfterLastByteStartsFreshFlow(t *testing.T) {
	k := sim.New(1)
	g, pool := testGroup(k, 1, 1, 1)
	g.MaxRetries = 1
	col := obs.NewCollector()
	g.SetObs(obs.NewHub(col))
	pool[0].SetObs(obs.NewHub(col))
	rec := &mpi.Packet{Src: 1, Kind: mpi.KindPayload, PSeq: 1, VSize: 4 << 10}
	// The last byte leaves at tx; the delivery follows one latency later.
	tx := sim.Time(float64(rec.WireSize()) / g.net.Bandwidth(0, pool[0].Node) * 1e9)
	lat := g.net.Latency(0, pool[0].Node)
	var sink countSink
	k.Go("w", func(p *sim.Proc) {
		op := g.StoreLogs(0, 1, []*mpi.Packet{rec}, 0, &sink)
		r := &op.replicas[0]
		p.Advance(tx + lat/2)
		if r.flow != &r.first || len(pool[0].Logs(0, 1)) != 0 {
			t.Fatal("the first attempt is not in flight in its entry's flow")
		}
		pool[0].Kill()
		pool[0].dead = false // back at once, empty (set by hand, as above)
		p.Advance(time.Nanosecond)
		if r.flow == nil || r.flow == &r.first {
			t.Error("the retry did not start a fresh flow")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := col.Count(obs.EvStoreRetry); n != 1 {
		t.Errorf("%d store retries, want 1", n)
	}
	if logs := pool[0].Logs(0, 1); len(logs) != 1 || logs[0] != rec {
		t.Errorf("the server stores %v, want the record once", logs)
	}
	if n := col.Count(obs.EvLogShipEnd); n != 1 {
		t.Errorf("%d log ships landed, want 1", n)
	}
	if sink != 1 {
		t.Errorf("the sink heard of the quorum %d times, want 1", sink)
	}
}

// TestRecordSizes: a one-replica log store — the op, its replica entry
// and the entry's first flow, what every logged message costs — fits a
// 352-byte size class, and a two-replica one 576 bytes.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(storeOp1{}); n > 352 {
		t.Errorf("a one-replica StoreOp is %d bytes, want <= 352", n)
	}
	if n := unsafe.Sizeof(storeOp2{}); n > 576 {
		t.Errorf("a two-replica StoreOp is %d bytes, want <= 576", n)
	}
}

// TestStoreLogsAllocs pins BenchmarkGroupStoreLogs: once the group's free
// list is warm, a one-record log store allocates nothing at one replica
// or at two.  The sender tracks each op and drops it once settled, as
// ftpm's procRun does, which releases it (StoreOp.Release); the next
// StoreLogs takes it back, with the record, the replica entries and their
// first flows inside.
func TestStoreLogsAllocs(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		k := sim.New(1)
		g, _ := benchGroup(k, replicas, replicas)
		record := []*mpi.Packet{{Src: 1, Kind: mpi.KindPayload, Tag: 5, VSize: 4 << 10}}
		var sink countSink
		tr := make(tracker, 0, 1)
		k.Go("w", func(p *sim.Proc) {
			one := func() {
				record[0].PSeq++
				tr = append(tr, g.StoreLogs(int(record[0].PSeq%16), 1, record, 0, &sink))
				p.Advance(time.Millisecond) // long after both copies landed
				tr.drop()
			}
			one()
			if n := testing.AllocsPerRun(200, one); n != 0 {
				t.Errorf("replicas=%d: %v allocations per record, want 0", replicas, n)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if int(sink) != 202 {
			t.Errorf("replicas=%d: %d of 202 stores reached their quorum", replicas, sink)
		}
		if len(g.free) != 1 {
			t.Errorf("replicas=%d: %d ops on the free list, want the one all 202 stores shared", replicas, len(g.free))
		}
	}
}
