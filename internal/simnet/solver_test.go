package simnet

import (
	"math/rand"
	"testing"
	"time"

	"ftckpt/internal/sim"
)

// The flow solver against the reference (reference_test.go): one schedule
// of starts and cancels drives both, each on a kernel of its own, and every
// flow's last byte must leave at the same instant to within 1 ns
// (compareSolvers has the one exception) — or the flow be cancelled
// first in both.  The per-resource clocks settle a flow's bytes at other
// instants than the reference does, so the two round differently; the
// model they compute is the same.

// solverTopo is two clusters of four nodes: NICs of two speeds, a WAN
// uplink narrower than a NIC and a per-flow WAN cap below that, so a WAN
// flow's bottleneck may be its cap, either uplink or either NIC.
var solverTopo = Topology{
	Clusters: []ClusterSpec{
		{Name: "a", Nodes: 4, NICBW: 100e6, Latency: 50 * time.Microsecond},
		{Name: "b", Nodes: 4, NICBW: 80e6, Latency: 30 * time.Microsecond},
	},
	WanLatency: 5 * time.Millisecond,
	WanBW:      50e6,
	WanFlowCap: 20e6,
}

// flowOp is one step of a schedule: at virtual time at, start a flow of
// size bytes from src to dst under cap (0: none), or, when cancel ≥ 0,
// cancel the flow the cancel-th start began.
type flowOp struct {
	at       sim.Time
	src, dst int
	size     Bytes
	cap      Rate
	cancel   int
}

// decodeSchedule reads a schedule from b, five bytes a step: a gap from
// the previous step, a kind, and three bytes of operands.  Every eighth
// kind cancels an earlier flow, which may still be transmitting, may be
// delivered or may be cancelled already; one start in four carries a cap;
// src = dst is a loopback; one size byte in sixteen is a zero-size flow.
func decodeSchedule(b []byte) []flowOp {
	nodes := solverTopo.TotalNodes()
	var ops []flowOp
	var at sim.Time
	starts := 0
	for ; len(b) >= 5; b = b[5:] {
		at += sim.Time(b[0]) * 37 * time.Microsecond
		op := flowOp{at: at, cancel: -1}
		switch kind := b[1]; {
		case kind%8 == 0 && starts > 0:
			op.cancel = int(b[2]) % starts
		default:
			op.src, op.dst = int(b[2])%nodes, int(b[2]/16)%nodes
			if b[3]%16 != 0 {
				op.size = Bytes(b[3]) * Bytes(b[4]+1) * 97
			}
			if kind%4 == 1 {
				// Rounded like a simulated product: the CI guard
				// against fused multiply-adds checks this binary too.
				op.cap = 5e6 + float64(Rate(b[4])*1e5)
			}
			starts++
		}
		ops = append(ops, op)
	}
	return ops
}

// solverFlow is what a schedule holds of a flow it started: its cancel,
// and the instant its last byte left (-1 if it has not).
type solverFlow interface {
	Cancel()
	ended() sim.Time
}

// endedFlow is a Network flow whose owner records when its last byte
// leaves; an owned flow is delivered by its owner, which this one skips.
type endedFlow struct {
	*Flow
	end sim.Time
}

func (e *endedFlow) transferred(sim.Time, Bytes) { e.end = e.net.k.Now() }
func (e *endedFlow) ended() sim.Time             { return e.end }

func (f *refFlow) ended() sim.Time { return f.end }

// runSchedule plays ops on k through start and returns, per start, the
// instant its last byte left (-1 if never) and the instant it was
// cancelled (-1 if never).
func runSchedule(t testing.TB, k *sim.Kernel, ops []flowOp, start func(flowOp) solverFlow) (ended, cancelled []sim.Time) {
	var flows []solverFlow
	for _, op := range ops {
		if op.cancel >= 0 {
			k.At(op.at, func() {
				if cancelled[op.cancel] < 0 {
					cancelled[op.cancel] = k.Now()
				}
				flows[op.cancel].Cancel()
			})
			continue
		}
		id := len(flows)
		flows = append(flows, nil)
		cancelled = append(cancelled, -1)
		k.At(op.at, func() { flows[id] = start(op) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		ended = append(ended, f.ended())
	}
	return ended, cancelled
}

// compareSolvers runs ops through Network and the reference and checks the
// instant every flow's last byte left.  A flow whose last byte left under
// one solver only — the other cancelled it first — passes only if that was
// within 1 ns of the cancel.  A flow that ended under both must end within
// 1 ns of the reference, unless a neighbour — a flow that shared a
// resource with it and ended while it was in flight — ended at instants
// that differ.  The model itself moves a flow's end by a neighbour's shift
// times the ratio of its rates after and before that end, so a 1 ns shift
// (one solver lands just below a whole nanosecond, the other on it) may
// grow to a few; such a flow must still be within 1 µs.  The first flow a
// fault in a solver moves has no shifted neighbour, so the 1 ns bound is
// what catches it.  compareSolvers returns how many flows ended under
// both, how many of them 1 ns apart and how many further apart behind a
// shifted neighbour.
func compareSolvers(t testing.TB, ops []flowOp) (ended, off, downstream int) {
	t.Helper()
	k := sim.New(1)
	n := New(k, solverTopo)
	got, cancelled := runSchedule(t, k, ops, func(op flowOp) solverFlow {
		e := &endedFlow{Flow: n.StartFlowCapped(op.src, op.dst, op.size, op.cap, nil), end: -1}
		e.payload = flowOwner(e)
		return e
	})
	rk := sim.New(1)
	ref := newRefNetwork(rk, solverTopo)
	want, _ := runSchedule(t, rk, ops, func(op flowOp) solverFlow {
		return ref.StartFlowCapped(op.src, op.dst, op.size, op.cap, nil)
	})
	type flowRun struct {
		op      flowOp
		end     sim.Time // the reference's end, or the cancel
		shifted bool     // the two ends differ
		res     [maxPathRes]int
		nres    int
	}
	var flows []flowRun
	nodes := solverTopo.TotalNodes()
	for _, op := range ops {
		if op.cancel >= 0 {
			continue
		}
		i := len(flows)
		fr := flowRun{op: op, end: want[i], shifted: got[i] != want[i]}
		if op.src != op.dst {
			fr.res[0], fr.res[1], fr.nres = op.src, nodes+op.dst, 2
			if a, b := n.Cluster(op.src), n.Cluster(op.dst); a != b {
				fr.res[2], fr.res[3], fr.nres = 2*nodes+a, 2*nodes+b, 4
			}
		}
		if g, w := got[i], want[i]; (g < 0) != (w < 0) {
			fr.end = cancelled[i]
			if d := max(g, w) - cancelled[i]; d < -1 || d > 1 {
				t.Errorf("flow %d (%d→%d, %d B, cap %g, start %v): ended at %v, reference %v, cancelled at %v",
					i, op.src, op.dst, op.size, op.cap, op.at, g, w, cancelled[i])
			}
		}
		flows = append(flows, fr)
	}
	neighbours := func(a, b *flowRun) bool {
		for _, x := range a.res[:a.nres] {
			for _, y := range b.res[:b.nres] {
				if x == y {
					return true
				}
			}
		}
		return false
	}
	for i := range flows {
		fi := &flows[i]
		g, w := got[i], want[i]
		if g < 0 || w < 0 {
			continue
		}
		ended++
		d := max(g-w, w-g)
		switch {
		case d == 0:
			continue
		case d == 1:
			off++
			continue
		}
		upstream := false
		for j := range flows {
			fj := &flows[j]
			if j != i && fj.shifted && fj.end >= fi.op.at && fj.end <= w && neighbours(fi, fj) {
				upstream = true
				break
			}
		}
		if !upstream || d > sim.Time(time.Microsecond) {
			t.Errorf("flow %d (%d→%d, %d B, cap %g, start %v): ended at %v, reference %v (shifted neighbour: %v)",
				i, fi.op.src, fi.op.dst, fi.op.size, fi.op.cap, fi.op.at, g, w, upstream)
			continue
		}
		downstream++
	}
	return ended, off, downstream
}

// TestFlowSolverMatchesReference plays 100 seeded random schedules of 600
// steps each.
func TestFlowSolverMatchesReference(t *testing.T) {
	total, off, down := 0, 0, 0
	for seed := int64(1); seed <= 100; seed++ {
		b := make([]byte, 5*600)
		rand.New(rand.NewSource(seed)).Read(b)
		d, o, s := compareSolvers(t, decodeSchedule(b))
		if d == 0 {
			t.Fatalf("seed %d: no flow ended", seed)
		}
		total, off, down = total+d, off+o, down+s
	}
	t.Logf("%d flows ended: %d of them 1 ns from the reference, %d further behind a shifted neighbour", total, off, down)
}

// FuzzFlowSolver plays a byte-chosen schedule (decodeSchedule) through
// both solvers.
//
//	go test -run '^$' -fuzz FuzzFlowSolver -fuzztime 10s -fuzzminimizetime 1s ./internal/simnet
func FuzzFlowSolver(f *testing.F) {
	f.Add([]byte{0, 1, 0x10, 64, 200, 0, 1, 0x21, 64, 200, 3, 8, 0, 0, 0})
	f.Add([]byte{0, 1, 0x40, 90, 90, 0, 2, 0x40, 90, 90, 0, 1, 0x51, 16, 4, 1, 8, 1, 0, 0})
	f.Add([]byte{0, 2, 0x33, 0, 9, 0, 2, 0x33, 7, 9, 0, 1, 0x73, 255, 255, 40, 8, 2, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 5*2000 {
			b = b[:5*2000]
		}
		compareSolvers(t, decodeSchedule(b))
	})
}
