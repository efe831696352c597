package ckpt

import (
	"testing"
	"time"

	"ftckpt/internal/mpi"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// toyProgram is a minimal Program for image tests.
type toyProgram struct {
	Phase int
	X     []float64
	Mem   int64
}

func (t *toyProgram) Step(e *mpi.Engine) bool { t.Phase++; return t.Phase > 3 }
func (t *toyProgram) Footprint() int64        { return t.Mem }

func init() { mpi.RegisterProgram("ckpt.toyProgram", func() mpi.Program { return new(toyProgram) }) }

func testNet(k *sim.Kernel) *simnet.Network {
	return simnet.New(k, simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "c", Nodes: 4, NICBW: 100e6, Latency: 50 * time.Microsecond,
	}}})
}

// store ships img from srcNode to srv alone, through a one-server Group:
// onStored (may be nil) runs once the image is on the server, onAborted
// (may be nil) if the server refuses it or dies first.
func store(srv *Server, img *Image, srcNode int, onStored, onAborted func()) *StoreOp {
	return NewGroup(srv.net, []*Server{srv}, 1, 1, nil).Store(img, srcNode, 0, onStored, onAborted)
}

// storeLogs ships a log set for (rank, wave) from srcNode to srv alone.
func storeLogs(srv *Server, rank, wave int, pkts []*mpi.Packet, srcNode int) *StoreOp {
	return NewGroup(srv.net, []*Server{srv}, 1, 1, nil).StoreLogs(rank, wave, pkts, srcNode, nil)
}

func TestProgramCodecRoundTrip(t *testing.T) {
	p := &toyProgram{Phase: 2, X: []float64{1.5, -3}, Mem: 1 << 20}
	b, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodeProgram(b)
	if err != nil {
		t.Fatal(err)
	}
	tp, ok := q.(*toyProgram)
	if !ok {
		t.Fatalf("decoded %T", q)
	}
	if tp.Phase != 2 || len(tp.X) != 2 || tp.X[1] != -3 || tp.Mem != 1<<20 {
		t.Fatalf("round trip lost state: %+v", tp)
	}
}

func TestImageBytesDominatedByFootprint(t *testing.T) {
	im := &Image{Rank: 1, Wave: 3, Footprint: 30 << 20, App: make([]byte, 100)}
	if im.Bytes() < 30<<20 || im.Bytes() > 31<<20 {
		t.Fatalf("Bytes() = %d", im.Bytes())
	}
}

func TestServerStoreFetch(t *testing.T) {
	k := sim.New(1)
	net := testNet(k)
	srv := NewServer(net, 0, 3)
	app, _ := EncodeProgram(&toyProgram{Phase: 7, Mem: 1 << 20})
	img := &Image{Rank: 2, Wave: 1, App: app, Footprint: 1 << 20}

	var storedAt sim.Time
	var fetched *Image
	k.Go("proc", func(p *sim.Proc) {
		store(srv, img, 0, func() {
			storedAt = k.Now()
			if !srv.Has(2, 1) {
				t.Error("image not stored at onStored time")
			}
			if _, err := srv.FetchImage(2, 1, 1, func(im *Image) { fetched = im }, nil); err != nil {
				t.Error(err)
			}
			if _, err := srv.FetchLogs(2, 1, 1, false, func(logs []*mpi.Packet) {
				if len(logs) != 0 {
					t.Errorf("unexpected logs: %d", len(logs))
				}
			}, nil); err != nil {
				t.Error(err)
			}
		}, nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 1MB at 100MB/s ≈ 10.5ms.
	if storedAt < 10*time.Millisecond || storedAt > 12*time.Millisecond {
		t.Fatalf("stored at %v", storedAt)
	}
	if fetched == nil || fetched.Rank != 2 || fetched.Wave != 1 {
		t.Fatalf("fetched %+v", fetched)
	}
	p, err := DecodeProgram(fetched.App)
	if err != nil {
		t.Fatal(err)
	}
	if p.(*toyProgram).Phase != 7 {
		t.Fatal("fetched image has wrong program state")
	}
}

func TestServerLogsAccumulate(t *testing.T) {
	k := sim.New(1)
	net := testNet(k)
	srv := NewServer(net, 0, 1)
	store(srv, &Image{Rank: 0, Wave: 2, Footprint: 100}, 0, nil, nil)
	storeLogs(srv, 0, 2, []*mpi.Packet{
		{Src: 1, Dst: 0, Kind: mpi.KindPayload, Tag: 5, Data: []byte("a")},
	}, 0)
	storeLogs(srv, 0, 2, []*mpi.Packet{
		{Src: 2, Dst: 0, Kind: mpi.KindPayload, Tag: 5, Data: []byte("b")},
	}, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	logs := srv.Logs(0, 2)
	if len(logs) != 2 || string(logs[0].Data) != "a" || string(logs[1].Data) != "b" {
		t.Fatalf("logs %v", logs)
	}
}

// TestServerLogsShareHandedPackets: a log store keeps the packets it is
// handed, not copies — they are received payloads, read-only — though the
// slice that holds them is its own.  A log fetched twice, by wave and as a
// reception history, replays the same packets both times.
func TestServerLogsShareHandedPackets(t *testing.T) {
	k := sim.New(1)
	srv := NewServer(testNet(k), 0, 1)
	a := &mpi.Packet{Src: 1, Dst: 0, Kind: mpi.KindPayload, Tag: 5, PSeq: 1, Data: []byte("a")}
	b := &mpi.Packet{Src: 2, Dst: 0, Kind: mpi.KindPayload, Tag: 5, PSeq: 1, Data: []byte("b")}
	handed := []*mpi.Packet{a, b}
	storeLogs(srv, 0, 2, handed, 0)
	handed[0], handed[1] = nil, nil // the sender's slice is its own to reuse
	var fetched [][]*mpi.Packet
	k.After(time.Second, func() {
		for _, since := range []bool{false, true} {
			if _, err := srv.FetchLogs(0, 2, 3, since, func(l []*mpi.Packet) { fetched = append(fetched, l) }, nil); err != nil {
				t.Error(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if logs := srv.Logs(0, 2); len(logs) != 2 || logs[0] != a || logs[1] != b {
		t.Fatalf("stored %v, want the two packets handed over", logs)
	}
	if len(fetched) != 2 {
		t.Fatalf("%d fetches landed, want 2", len(fetched))
	}
	for i, l := range fetched {
		if len(l) != 2 || l[0] != a || l[1] != b {
			t.Errorf("fetch %d replays %v, want the stored packets", i, l)
		}
	}
}

func TestServerGC(t *testing.T) {
	k := sim.New(1)
	net := testNet(k)
	srv := NewServer(net, 0, 1)
	for wave := 1; wave <= 3; wave++ {
		store(srv, &Image{Rank: 0, Wave: wave, Footprint: 10}, 0, nil, nil)
		storeLogs(srv, 0, wave, []*mpi.Packet{{Kind: mpi.KindPayload}}, 0)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	srv.GC(3)
	if srv.Has(0, 1) || srv.Has(0, 2) {
		t.Fatal("GC kept superseded waves")
	}
	if !srv.Has(0, 3) {
		t.Fatal("GC dropped the committed wave")
	}
	if len(srv.Logs(0, 2)) != 0 || len(srv.Logs(0, 3)) != 1 {
		t.Fatal("GC mishandled logs")
	}
}

func TestReceiveCancelled(t *testing.T) {
	k := sim.New(1)
	net := testNet(k)
	srv := NewServer(net, 0, 1)
	op := store(srv, &Image{Rank: 0, Wave: 1, Footprint: 100 << 20}, 0, func() {
		t.Error("cancelled transfer stored")
	}, nil)
	k.After(time.Millisecond, op.Cancel)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.Has(0, 1) {
		t.Fatal("image stored despite cancel")
	}
}

func TestTransfersCompeteForServerNIC(t *testing.T) {
	k := sim.New(1)
	net := testNet(k)
	srv := NewServer(net, 0, 3)
	var t1, t2 sim.Time
	store(srv, &Image{Rank: 0, Wave: 1, Footprint: 50e6}, 0, func() { t1 = k.Now() }, nil)
	store(srv, &Image{Rank: 1, Wave: 1, Footprint: 50e6}, 1, func() { t2 = k.Now() }, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two 50MB images into one 100MB/s rx NIC: ~1s each, not ~0.5s.
	if t1 < 900*time.Millisecond || t2 < 900*time.Millisecond {
		t.Fatalf("server NIC not shared: %v %v", t1, t2)
	}
}
