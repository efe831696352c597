package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

func testTopo(nodes int) simnet.Topology {
	return simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "t", Nodes: nodes, NICBW: 100e6, Latency: 50 * time.Microsecond,
	}}}
}

func newWorld(t *testing.T, size int) *World {
	t.Helper()
	return NewWorld(sim.New(1), testTopo(size), Profile{Name: "test"}, size, 1)
}

func TestSendRecvBasic(t *testing.T) {
	w := newWorld(t, 2)
	var got []byte
	err := w.Run(func(e *Engine) {
		if e.Rank() == 0 {
			e.Send(1, 7, []byte("hello"), 0)
		} else {
			got = e.Recv(0, 7).Data
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestRecvTagSelectivity(t *testing.T) {
	w := newWorld(t, 2)
	var order []int
	err := w.Run(func(e *Engine) {
		switch e.Rank() {
		case 0:
			e.Send(1, 1, nil, 0)
			e.Send(1, 2, nil, 0)
		case 1:
			order = append(order, e.Recv(0, 2).Tag) // tag 2 first despite FIFO arrival
			order = append(order, e.Recv(0, 1).Tag)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("order %v", order)
	}
}
func TestFIFOPerChannel(t *testing.T) {
	w := newWorld(t, 2)
	const n = 50
	var got []int
	err := w.Run(func(e *Engine) {
		if e.Rank() == 0 {
			for i := 0; i < n; i++ {
				e.Send(1, 3, []byte{byte(i)}, int64(1+i%17*1000))
			}
		} else {
			for i := 0; i < n; i++ {
				got = append(got, int(e.Recv(0, 3).Data[0]))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, got)
		}
	}
}

func TestUnexpectedBeforePost(t *testing.T) {
	w := newWorld(t, 2)
	var got Packet
	err := w.Run(func(e *Engine) {
		if e.Rank() == 0 {
			e.Send(1, 9, []byte("early"), 0)
		} else {
			e.Compute(time.Second) // message arrives long before the recv
			got = e.Recv(0, 9)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "early" {
		t.Fatalf("got %v", got)
	}
}

func TestSendrecvExchange(t *testing.T) {
	w := newWorld(t, 2)
	var got [2]string
	err := w.Run(func(e *Engine) {
		peer := 1 - e.Rank()
		p := e.Sendrecv(peer, 4, []byte(fmt.Sprintf("from%d", e.Rank())), 0, peer, 4)
		got[e.Rank()] = string(p.Data)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != "from1" || got[1] != "from0" {
		t.Fatalf("got %v", got)
	}
}
func TestAllreduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 9, 16, 17} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			w := newWorld(t, p)
			results := make([][]float64, p)
			err := w.Run(func(e *Engine) {
				x := []float64{float64(e.Rank() + 1), 1}
				results[e.Rank()] = e.AllreduceF64(OpSum, x)
			})
			if err != nil {
				t.Fatal(err)
			}
			wantSum := float64(p*(p+1)) / 2
			for r, res := range results {
				if len(res) != 2 || math.Abs(res[0]-wantSum) > 1e-9 || res[1] != float64(p) {
					t.Fatalf("rank %d got %v, want [%v %v]", r, res, wantSum, p)
				}
			}
		})
	}
}
func TestAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 8} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			w := newWorld(t, p)
			results := make([][][]byte, p)
			err := w.Run(func(e *Engine) {
				results[e.Rank()] = e.AllgatherB([]byte{byte(e.Rank()), byte(e.Rank() * 2)})
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, blocks := range results {
				if len(blocks) != p {
					t.Fatalf("rank %d: %d blocks", r, len(blocks))
				}
				for i, b := range blocks {
					if len(b) != 2 || b[0] != byte(i) || b[1] != byte(i*2) {
						t.Fatalf("rank %d block %d = %v", r, i, b)
					}
				}
			}
		})
	}
}
func TestConsecutiveCollectivesDoNotCrossTalk(t *testing.T) {
	w := newWorld(t, 4)
	var bad bool
	err := w.Run(func(e *Engine) {
		for i := 0; i < 20; i++ {
			res := e.AllreduceF64(OpSum, []float64{float64(i)})
			if res[0] != float64(4*i) {
				bad = true
			}
			for r, b := range e.AllgatherB([]byte{byte(i), byte(e.Rank())}) {
				if len(b) != 2 || b[0] != byte(i) || b[1] != byte(r) {
					bad = true
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad {
		t.Fatal("cross-talk between consecutive collectives")
	}
}

func TestDaemonProfileAddsLatency(t *testing.T) {
	run := func(prof Profile) sim.Time {
		k := sim.New(1)
		w := NewWorld(k, testTopo(2), prof, 2, 1)
		var done sim.Time
		if err := w.Run(func(e *Engine) {
			if e.Rank() == 0 {
				e.Send(1, 1, nil, 1000)
			} else {
				e.Recv(0, 1)
				done = e.Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return done
	}
	thin := run(Profile{Name: "thin"})
	daemon := run(Profile{Name: "daemon", DaemonLatency: 40 * time.Microsecond, Async: true})
	if daemon <= thin {
		t.Fatalf("daemon profile (%v) not slower than thin (%v)", daemon, thin)
	}
	if d := daemon - thin; d < 35*time.Microsecond || d > 45*time.Microsecond {
		t.Fatalf("daemon overhead %v, want ~40µs", d)
	}
}

func TestDaemonPreservesOrder(t *testing.T) {
	k := sim.New(1)
	prof := Profile{Name: "daemon", DaemonLatency: 10 * time.Microsecond, DaemonCopyBW: 200e6, Async: true}
	w := NewWorld(k, testTopo(2), prof, 2, 1)
	const n = 30
	var got []int
	err := w.Run(func(e *Engine) {
		if e.Rank() == 0 {
			for i := 0; i < n; i++ {
				e.Send(1, 2, []byte{byte(i)}, int64(rand.New(rand.NewSource(int64(i))).Intn(100000)))
			}
		} else {
			for i := 0; i < n; i++ {
				got = append(got, int(e.Recv(0, 2).Data[0]))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("daemon reordered: %v", got)
		}
	}
}

func TestSendOverheadCharged(t *testing.T) {
	k := sim.New(1)
	prof := Profile{Name: "oh", SendOverhead: time.Millisecond}
	w := NewWorld(k, testTopo(2), prof, 2, 1)
	var after sim.Time
	err := w.Run(func(e *Engine) {
		if e.Rank() == 0 {
			for i := 0; i < 5; i++ {
				e.Send(1, 1, nil, 0)
			}
			after = e.Now()
		} else {
			for i := 0; i < 5; i++ {
				e.Recv(0, 1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if after < 5*time.Millisecond {
		t.Fatalf("sender spent %v, want >= 5ms of send overhead", after)
	}
}

func TestEngineImageRoundTrip(t *testing.T) {
	e := &Engine{rank: 0, size: 2}
	e.unexpected = []Packet{{Src: 1, Dst: 0, Kind: KindPayload, Tag: 3, Data: []byte("x"), VSize: 100}}
	e.collSeq = 9
	e.coll = &CollState{Kind: CollAllreduce, Seq: 9, Stage: 1, Mask: 2, AccF: []float64{1, 2}}
	img := e.CaptureImage()

	// Mutating the engine afterwards must not affect the image.  A packet's
	// Data is read-only once sent, so only its header is the engine's to
	// change.
	e.unexpected[0].Tag = 4
	e.coll.AccF[0] = 99

	f := &Engine{rank: 0, size: 2}
	f.RestoreImage(img)
	if p := f.unexpected[0]; p.Tag != 3 || string(p.Data) != "x" {
		t.Fatalf("restored packet tag %d data %q: image shares packets with live engine", p.Tag, p.Data)
	}
	if f.coll == nil || !f.coll.Resumed || f.coll.AccF[0] != 1 {
		t.Fatalf("restored coll %+v", f.coll)
	}
	if f.collSeq != 9 {
		t.Fatalf("collSeq %d", f.collSeq)
	}
	if img.StateBytes() < 100 {
		t.Fatalf("StateBytes %d too small", img.StateBytes())
	}
}

func TestEncodeDecodeF64s(t *testing.T) {
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(u, v float64) bool { return u == v || math.IsNaN(u) && math.IsNaN(v) })
	}
	// AppendF64s inverts EncodeF64s and extends a prefix it leaves alone;
	// addF64s adds the encoded values in place.
	f := func(head, x []float64) bool {
		b := EncodeF64s(x)
		app := AppendF64s(slices.Clone(head), b)
		acc := make([]float64, len(x))
		addF64s(acc, b)
		return same(app, append(slices.Clone(head), x...)) && same(acc, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRandomTrafficProperty: arbitrary point-to-point traffic patterns are
// delivered exactly once, FIFO per ordered pair.
func TestRandomTrafficProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(5)
		counts := make([][]int, p) // counts[i][j]: messages i -> j
		for i := range counts {
			counts[i] = make([]int, p)
			for j := range counts[i] {
				if i != j {
					counts[i][j] = rng.Intn(8)
				}
			}
		}
		w := NewWorld(sim.New(seed), testTopo(p), Profile{}, p, 1)
		okc := make([]bool, p)
		err := w.Run(func(e *Engine) {
			r := e.Rank()
			// Send phase: tag encodes per-pair sequence.
			for j := 0; j < p; j++ {
				for s := 0; s < counts[r][j]; s++ {
					e.Send(j, 100+s, []byte{byte(s)}, 0)
				}
			}
			// Receive phase: drain expected counts in per-sender order.
			ok := true
			for i := 0; i < p; i++ {
				for s := 0; s < counts[i][r]; s++ {
					pkt := e.Recv(i, 100+s)
					if int(pkt.Data[0]) != s {
						ok = false
					}
				}
			}
			okc[r] = ok
		})
		if err != nil {
			return false
		}
		for _, ok := range okc {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveProperty: allreduce results match a local reduction for
// random sizes and inputs.
func TestCollectiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(12)
		vals := make([]float64, p)
		for i := range vals {
			vals[i] = rng.Float64()*100 - 50
		}
		want := 0.0
		for _, v := range vals {
			want += v
		}
		w := NewWorld(sim.New(seed), testTopo(p), Profile{}, p, 1)
		results := make([]float64, p)
		err := w.Run(func(e *Engine) {
			results[e.Rank()] = e.AllreduceF64(OpSum, []float64{vals[e.Rank()]})[0]
		})
		if err != nil {
			return false
		}
		for _, r := range results {
			if math.Abs(r-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSteal(t *testing.T) {
	k := sim.New(1)
	w := NewWorld(k, testTopo(1), Profile{}, 1, 1)
	var t1, t2 sim.Time
	err := w.Run(func(e *Engine) {
		e.Compute(time.Second)
		t1 = e.Now()
		e.AddSteal(0.5)
		e.Compute(time.Second)
		t2 = e.Now() - t1
		e.SubSteal(0.5)
		e.SubSteal(0.5) // extra SubSteal clamps at zero
		e.Compute(time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if t1 != time.Second {
		t.Fatalf("unstolen compute took %v", t1)
	}
	if t2 != 1500*time.Millisecond {
		t.Fatalf("stolen compute took %v, want 1.5s", t2)
	}
	if k.Now() != 3500*time.Millisecond {
		t.Fatalf("end %v, want 3.5s", k.Now())
	}
}
