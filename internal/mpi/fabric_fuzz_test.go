package mpi

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// A fabric program is bytes: the first picks the layout, then every three
// bytes are one step, [op, arg, dt].  Layout byte b: 2 + b%7 endpoints on
// 2 + (b/7)&1 nodes, endpoint e on node e%nodes; bit 1 of b/7 numbers the
// endpoints from SchedulerID instead of 0, and bit 2 puts every node in a
// cluster of its own, the third with slower NICs, so paths differ in lane
// class and bandwidth.  A step runs (dt%32)·2^(dt/32)·100 ns after the
// one before it: up to 0.4 ms, and within a marker's time on the NIC
// often enough that posts, channels and backlogs meet.
// op%8 picks what it does, arg the endpoints (src arg%n, the other end
// (arg/n)%n, skipping src), and op/8 a size:
//
//	0, 1  a small payload, VSize op/8 (a body-less one when 0)
//	2     a bulk payload, 4 KB + op/8 KB
//	3     a body-less control packet
//	4     a marker
//	5     Flood a marker from src to the endpoints in [lo, hi), lo and hi
//	      from the other end and op/8
//	6     Unbind src
//	7     Bind src, when it is unbound
type fabricStep struct {
	op, arg byte
	at      time.Duration
}

type fabricProgram struct {
	eps, nodes, base int
	topo             simnet.Topology
	steps            []fabricStep
}

func decodeFabricProgram(b []byte) fabricProgram {
	if len(b) == 0 {
		b = []byte{0}
	}
	var p fabricProgram
	c := b[0] / 7
	p.eps, p.nodes = 2+int(b[0])%7, 2+int(c&1)
	if c&2 != 0 {
		p.base = SchedulerID
	}
	p.topo = testTopo(p.nodes)
	if c&4 != 0 {
		p.topo = clusters(1, []simnet.Rate{100e6, 100e6, 20e6}[:p.nodes]...)
	}
	var at time.Duration
	for b = b[1:]; len(b) >= 3; b = b[3:] {
		at += time.Duration(b[2]%32) << (b[2] / 32) * 100 * time.Nanosecond
		p.steps = append(p.steps, fabricStep{b[0], b[1], at})
	}
	return p
}

// fabricPkt is one packet a program sent and what became of it.
type fabricPkt struct {
	src, dst int
	seq      int  // its place in the program's send order
	kind     Kind // what was sent
	// cut: an Unbind of either end came after the send, so the packet
	// must not arrive; required: the destination was bound at the send
	// and nothing cut it, so it must arrive.
	cut, bound bool
	arrived    int
}

// playFabric runs a program and checks every arrival against what was
// sent: each pair's packets arrive in send order, none twice, none that
// an Unbind of either end followed, and every packet to a bound endpoint
// that no Unbind followed arrives.  A payload carries its channel's count
// (Packet.Seq from 1, rising per pair between unbinds), a posted packet 0.
func playFabric(t *testing.T, prog fabricProgram) {
	k := sim.New(1)
	fab := NewFabric(simnet.New(k, prog.topo))
	n, base := prog.eps, prog.base
	pkts := map[[2]int]*fabricPkt{} // by (tag, dst)
	bound := make([]bool, n)
	lastSeq := make([][]int, n) // the send order of each pair's last arrival
	lastChan := make([][]uint64, n)
	for e := range lastSeq {
		lastSeq[e], lastChan[e] = make([]int, n), make([]uint64, n)
		for o := range lastSeq[e] {
			lastSeq[e][o] = -1
		}
	}
	sent := 0
	bind := func(e int) {
		bound[e] = true
		fab.Bind(e+base, func(p *Packet) {
			m := pkts[[2]int{p.Tag, p.Dst - base}]
			switch {
			case m == nil || m.src != p.Src-base || m.kind != p.Kind:
				t.Fatalf("%v arrived at %d, never sent", p, e+base)
			case m.arrived > 0:
				t.Fatalf("%v arrived twice", p)
			case m.cut:
				t.Fatalf("%v arrived after an Unbind of one of its ends", p)
			case m.seq <= lastSeq[m.src][m.dst]:
				t.Fatalf("%v (send %d) arrived after send %d of its pair", p, m.seq, lastSeq[m.src][m.dst])
			case p.Kind == KindPayload && p.Seq == 0:
				t.Fatalf("%v: a payload with no channel sequence number", p)
			case p.Seq != 0 && p.Seq <= lastChan[m.src][m.dst]:
				t.Fatalf("%v: channel sequence number after %d", p, lastChan[m.src][m.dst])
			}
			m.arrived++
			lastSeq[m.src][m.dst] = m.seq
			if p.Seq != 0 {
				lastChan[m.src][m.dst] = p.Seq
			}
		})
	}
	for e := 0; e < n; e++ {
		fab.Place(e+base, e%prog.nodes)
		bind(e)
	}
	file := func(tag, src, dst int, kind Kind) {
		pkts[[2]int{tag, dst}] = &fabricPkt{src: src, dst: dst, seq: sent, kind: kind, bound: bound[dst]}
		sent++
	}
	for i, s := range prog.steps {
		src, other := int(s.arg)%n, int(s.arg)/n%(n-1)
		if other >= src {
			other++
		}
		size := int64(s.op / 8)
		k.At(s.at, func() {
			p := Packet{Tag: i, Wave: 1}
			switch op := s.op % 8; op {
			case 0, 1, 2, 3, 4:
				switch op {
				case 0, 1:
					p.VSize = size
				case 2:
					p.VSize = 4<<10 + size<<10
				case 3:
					p.Kind = KindControl
				case 4:
					p.Kind = KindMarker
				}
				file(i, src, other, p.Kind)
				fab.Send(src+base, other+base, &p)
			case 5:
				lo, hi := min(other, int(size)%(n+1)), max(other, int(size)%(n+1))
				p.Kind = KindMarker
				for dst := lo; dst < hi; dst++ {
					if dst != src {
						file(i, src, dst, KindMarker)
					}
				}
				fab.Flood(src+base, lo+base, hi+base, &p)
			case 6:
				for _, m := range pkts {
					if m.src == src || m.dst == src {
						m.cut = true
					}
				}
				for o := 0; o < n; o++ {
					lastChan[src][o], lastChan[o][src] = 0, 0
				}
				bound[src] = false
				fab.Unbind(src + base)
			case 7:
				if !bound[src] {
					bind(src)
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for key, m := range pkts {
		if m.bound && !m.cut && m.arrived != 1 {
			t.Errorf("packet %d %d->%d (%v) arrived %d times, want once: nothing cut it", key[0], m.src+base, m.dst+base, m.kind, m.arrived)
		}
	}
}

// TestFabricPrograms plays 200 seeded random programs of 120 steps, in
// which three of every four Unbind and Bind steps become bulk payloads and
// control packets, so that most packets must arrive.
func TestFabricPrograms(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 1+3*120)
		rng.Read(b)
		for i := 1; i < len(b); i += 3 {
			if b[i]%8 >= 6 && rng.Intn(4) != 0 {
				b[i] -= 4
			}
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { playFabric(t, decodeFabricProgram(b)) })
	}
}

// FuzzFabric plays a byte-chosen program (decodeFabricProgram).
//
//	go test -run '^$' -fuzz FuzzFabric -fuzztime 10s -fuzzminimizetime 1s ./internal/mpi
func FuzzFabric(f *testing.F) {
	f.Add([]byte{7, 4, 1, 0, 5, 3, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, b []byte) { playFabric(t, decodeFabricProgram(b)) })
}
