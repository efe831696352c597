package ftpm

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ftckpt/internal/ckpt"
	"ftckpt/internal/failure"
	"ftckpt/internal/mpi"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// ringProg is a deterministic SPMD workload exercising compute, neighbour
// exchange and collectives, written to the resumable-Program contract.
type ringProg struct {
	Rank, Size int
	Iters      int
	It         int
	Phase      int
	Val        float64
	Sum        float64
	Mem        int64
	Work       sim.Time
}

func init() { mpi.RegisterProgram("ftpm.ringProg", func() mpi.Program { return new(ringProg) }) }

func newRing(iters int, work sim.Time, mem int64) func(rank, size int) mpi.Program {
	return func(rank, size int) mpi.Program {
		return &ringProg{
			Rank: rank, Size: size, Iters: iters,
			Val: float64(rank + 1), Mem: mem, Work: work,
		}
	}
}

const (
	phCompute = iota
	phExchange
	phReduce
	phFinal
)

func (g *ringProg) Step(e *mpi.Engine) bool {
	switch g.Phase {
	case phCompute:
		e.Compute(g.Work)
		g.Phase = phExchange
	case phExchange:
		right := (g.Rank + 1) % g.Size
		left := (g.Rank - 1 + g.Size) % g.Size
		p := e.Sendrecv(right, 10, mpi.EncodeF64s([]float64{g.Val}), 0, left, 10)
		g.Val = 0.5*g.Val + 0.5*mpi.DecodeF64(p.Data) + 1
		g.It++
		switch {
		case g.It == g.Iters:
			g.Phase = phFinal
		case g.It%5 == 0:
			g.Phase = phReduce
		default:
			g.Phase = phCompute
		}
	case phReduce:
		s := e.AllreduceF64(mpi.OpSum, []float64{g.Val})
		g.Sum = s[0]
		g.Phase = phCompute
	case phFinal:
		s := e.AllreduceF64(mpi.OpSum, []float64{g.Val})
		g.Sum = s[0]
		return true
	}
	return false
}

func (g *ringProg) Footprint() int64 { return g.Mem }

func topoN(nodes int) simnet.Topology {
	return simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "c", Nodes: nodes, NICBW: 100e6, Latency: 50 * time.Microsecond,
	}}}
}

func baseCfg(np int) Config {
	return Config{
		NP:         np,
		Topology:   topoN(np + 4),
		Profile:    mpi.Profile{Name: "test"},
		NewProgram: newRing(150, time.Millisecond, 256<<10),
		Servers:    2,
		Deadline:   time.Hour,
		Seed:       1,
	}
}

// replicated replaces cfg's Servers shorthand with the servers level it
// stands for, carrying l's replication knobs.
func replicated(cfg *Config, l ckpt.LevelSpec) {
	l.Kind, l.Servers = ckpt.LevelServers, cfg.Servers
	cfg.Servers, cfg.Storage = 0, &ckpt.Spec{Levels: []ckpt.LevelSpec{l}}
}

// runOK runs a config and fails the test on error.
func runOK(t *testing.T, cfg Config) (Result, []mpi.Program) {
	t.Helper()
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, job.Programs()
}

// sums extracts the final checksum of each rank.
func sums(progs []mpi.Program) []float64 {
	out := make([]float64, len(progs))
	for i, p := range progs {
		out[i] = p.(*ringProg).Sum
	}
	return out
}

func TestBaselineCompletes(t *testing.T) {
	cfg := baseCfg(8)
	res, progs := runOK(t, cfg)
	if res.WavesCommitted != 0 || res.CkptBytes != 0 {
		t.Fatalf("baseline checkpointed: %+v", res)
	}
	s := sums(progs)
	for _, v := range s[1:] {
		if v != s[0] {
			t.Fatalf("ranks disagree: %v", s)
		}
	}
	if s[0] == 0 {
		t.Fatal("zero checksum")
	}
}

func TestDeterminism(t *testing.T) {
	for _, proto := range []Proto{ProtoNone, ProtoPcl, ProtoVcl} {
		cfg := baseCfg(6)
		cfg.Protocol = proto
		cfg.Interval = 15 * time.Millisecond
		if proto == ProtoNone {
			cfg.Interval = 0
			cfg.Servers = 2
		}
		a, _ := runOK(t, cfg)
		b, _ := runOK(t, cfg)
		var am, bm strings.Builder
		if err := a.Metrics.WriteJSON(&am); err != nil {
			t.Fatal(err)
		}
		if err := b.Metrics.WriteJSON(&bm); err != nil {
			t.Fatal(err)
		}
		a.Metrics, b.Metrics = nil, nil
		if a != b {
			t.Fatalf("%s nondeterministic:\n%+v\n%+v", proto, a, b)
		}
		if am.String() != bm.String() {
			t.Fatalf("%s metrics nondeterministic:\n%s\n%s", proto, am.String(), bm.String())
		}
	}
}

func TestPclFailureFreeWavesAndOverhead(t *testing.T) {
	base, _ := runOK(t, baseCfg(8))

	cfg := baseCfg(8)
	cfg.Protocol = ProtoPcl
	cfg.Interval = 20 * time.Millisecond
	res, progs := runOK(t, cfg)
	if res.WavesCommitted < 2 {
		t.Fatalf("only %d waves committed", res.WavesCommitted)
	}
	if res.LocalCkpts != res.WavesCommitted*8 {
		t.Fatalf("local ckpts %d, waves %d × 8", res.LocalCkpts, res.WavesCommitted)
	}
	if res.Completion <= base.Completion {
		t.Fatalf("pcl (%v) not slower than baseline (%v)", res.Completion, base.Completion)
	}
	if res.CkptBytes < int64(res.WavesCommitted)*8*(256<<10) {
		t.Fatalf("ckpt bytes %d too small", res.CkptBytes)
	}
	s := sums(progs)
	for _, v := range s[1:] {
		if v != s[0] {
			t.Fatalf("ranks disagree: %v", s)
		}
	}
}

func TestVclFailureFreeWaves(t *testing.T) {
	cfg := baseCfg(8)
	cfg.Protocol = ProtoVcl
	cfg.Interval = 20 * time.Millisecond
	res, progs := runOK(t, cfg)
	if res.WavesCommitted < 2 {
		t.Fatalf("only %d waves committed", res.WavesCommitted)
	}
	s := sums(progs)
	for _, v := range s[1:] {
		if v != s[0] {
			t.Fatalf("ranks disagree: %v", s)
		}
	}
}

// reference computes the failure-free checksum for a workload setup.
func reference(t *testing.T, np int) float64 {
	t.Helper()
	_, progs := runOK(t, baseCfg(np))
	return sums(progs)[0]
}

func TestPclRecovery(t *testing.T) {
	want := reference(t, 8)
	cfg := baseCfg(8)
	cfg.Protocol = ProtoPcl
	cfg.Interval = 15 * time.Millisecond
	cfg.Failures = failure.Plan{{At: 60 * time.Millisecond, Rank: 3}}
	res, progs := runOK(t, cfg)
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	for r, s := range sums(progs) {
		if s != want {
			t.Fatalf("rank %d checksum %v after recovery, want %v", r, s, want)
		}
	}
}

func TestVclRecoveryReplaysChannelState(t *testing.T) {
	want := reference(t, 8)
	cfg := baseCfg(8)
	cfg.Protocol = ProtoVcl
	cfg.Interval = 15 * time.Millisecond
	cfg.Failures = failure.Plan{{At: 60 * time.Millisecond, Rank: 5}}
	res, progs := runOK(t, cfg)
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	for r, s := range sums(progs) {
		if s != want {
			t.Fatalf("rank %d checksum %v after recovery, want %v", r, s, want)
		}
	}
}

func TestFailureBeforeFirstCommitRestartsFromScratch(t *testing.T) {
	want := reference(t, 6)
	cfg := baseCfg(6)
	cfg.Protocol = ProtoPcl
	cfg.Interval = 10 * time.Second // no wave before the failure
	cfg.Failures = failure.Plan{{At: 10 * time.Millisecond, Rank: 0}}
	res, progs := runOK(t, cfg)
	if res.Restarts != 1 || res.LastWave != 0 {
		t.Fatalf("restarts=%d lastWave=%d", res.Restarts, res.LastWave)
	}
	for _, s := range sums(progs) {
		if s != want {
			t.Fatalf("checksum %v, want %v", s, want)
		}
	}
}

func TestMultipleFailures(t *testing.T) {
	want := reference(t, 8)
	for _, proto := range []Proto{ProtoPcl, ProtoVcl} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			cfg := baseCfg(8)
			cfg.Protocol = proto
			cfg.Interval = 12 * time.Millisecond
			cfg.Failures = failure.Plan{
				{At: 40 * time.Millisecond, Rank: 1},
				{At: 110 * time.Millisecond, Rank: 6},
				{At: 180 * time.Millisecond, Rank: 1},
			}
			res, progs := runOK(t, cfg)
			if res.Restarts == 0 {
				t.Fatal("no restarts recorded")
			}
			for _, s := range sums(progs) {
				if s != want {
					t.Fatalf("checksum %v, want %v (restarts %d)", s, want, res.Restarts)
				}
			}
		})
	}
}

func TestMTTFFailures(t *testing.T) {
	want := reference(t, 6)
	cfg := baseCfg(6)
	cfg.Protocol = ProtoPcl
	cfg.Interval = 15 * time.Millisecond
	cfg.MTTF = 70 * time.Millisecond
	res, progs := runOK(t, cfg)
	for _, s := range sums(progs) {
		if s != want {
			t.Fatalf("checksum %v, want %v (restarts=%d)", s, want, res.Restarts)
		}
	}
}

func TestVclSelectLimit(t *testing.T) {
	cfg := baseCfg(301)
	cfg.Topology = topoN(310)
	cfg.Protocol = ProtoVcl
	cfg.Interval = time.Second
	_, err := NewJob(cfg)
	if err == nil || !strings.Contains(err.Error(), "select") {
		t.Fatalf("err = %v, want select() limit error", err)
	}
	cfg.VclProcessLimit = -1
	if _, err := NewJob(cfg); err != nil {
		t.Fatalf("override failed: %v", err)
	}
}

// TestBlockingCostGrowsWithFrequency is the paper's core qualitative
// claim in miniature: shrinking the checkpoint interval hurts the
// blocking protocol much more than the non-blocking one.
func TestBlockingCostGrowsWithFrequency(t *testing.T) {
	run := func(proto Proto, interval sim.Time) Result {
		cfg := baseCfg(8)
		cfg.NewProgram = newRing(200, time.Millisecond, 2<<20)
		cfg.Protocol = proto
		cfg.Interval = interval
		res, _ := runOK(t, cfg)
		return res
	}
	pclFast := run(ProtoPcl, 8*time.Millisecond)
	pclSlow := run(ProtoPcl, 50*time.Millisecond)
	vclFast := run(ProtoVcl, 8*time.Millisecond)
	vclSlow := run(ProtoVcl, 50*time.Millisecond)

	pclPenalty := float64(pclFast.Completion-pclSlow.Completion) / float64(pclSlow.Completion)
	vclPenalty := float64(vclFast.Completion-vclSlow.Completion) / float64(vclSlow.Completion)
	if pclFast.WavesCommitted <= pclSlow.WavesCommitted {
		t.Fatalf("frequency knob inert: %d vs %d waves", pclFast.WavesCommitted, pclSlow.WavesCommitted)
	}
	if pclPenalty <= vclPenalty {
		t.Fatalf("blocking penalty %.3f not above non-blocking %.3f", pclPenalty, vclPenalty)
	}
}

// TestRecoveryProperty: for random seeds, failure times and intervals, the
// recovered run produces the failure-free checksum.
func TestRecoveryProperty(t *testing.T) {
	want := reference(t, 5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		proto := ProtoPcl
		if rng.Intn(2) == 1 {
			proto = ProtoVcl
		}
		cfg := baseCfg(5)
		cfg.Seed = seed
		cfg.Protocol = proto
		cfg.Interval = sim.Time(5+rng.Intn(30)) * time.Millisecond
		cfg.Failures = failure.Plan{{
			At:   sim.Time(10+rng.Intn(150)) * time.Millisecond,
			Rank: rng.Intn(5),
		}}
		job, err := NewJob(cfg)
		if err != nil {
			return false
		}
		if _, err := job.Run(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, p := range job.Programs() {
			if math.Abs(p.(*ringProg).Sum-want) > 1e-9 {
				t.Logf("seed %d: checksum %v want %v", seed, p.(*ringProg).Sum, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{NP: 4},
		{NP: 4, NewProgram: newRing(1, 0, 0), Protocol: ProtoPcl, Topology: topoN(10)},
		{NP: 4, NewProgram: newRing(1, 0, 0), Protocol: "weird", Topology: topoN(10)},
		{NP: 40, NewProgram: newRing(1, 0, 0), Topology: topoN(4)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d validated", i)
		}
	}
}
