package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// encodeProfile builds a gzip-compressed profile from samples — the
// inverse of parseProfile for one-function locations, used by the unit
// test to make a synthetic profile.
func encodeProfile(samples []cpuSample) []byte {
	var msg []byte
	varint := func(b []byte, v uint64) []byte {
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		return append(b, byte(v))
	}
	bytesField := func(b []byte, field int, data []byte) []byte {
		b = varint(b, uint64(field)<<3|2)
		b = varint(b, uint64(len(data)))
		return append(b, data...)
	}
	varintField := func(b []byte, field int, v uint64) []byte {
		return varint(varint(b, uint64(field)<<3), v)
	}
	strs := []string{""}
	ids := map[string]uint64{} // function name → function id = location id = string index
	intern := func(fn string) uint64 {
		if id, ok := ids[fn]; ok {
			return id
		}
		strs = append(strs, fn)
		id := uint64(len(strs) - 1)
		ids[fn] = id
		return id
	}
	for _, s := range samples {
		var locs []byte
		for _, fn := range s.stack {
			locs = varint(locs, intern(fn))
		}
		sample := bytesField(nil, 1, locs)
		sample = bytesField(sample, 2, varint(varint(nil, 1), uint64(s.value)))
		msg = bytesField(msg, 2, sample)
	}
	for id := uint64(1); id < uint64(len(strs)); id++ {
		loc := varintField(nil, 1, id)
		loc = bytesField(loc, 4, varintField(nil, 1, id))
		msg = bytesField(msg, 4, loc)
		msg = bytesField(msg, 5, varintField(varintField(nil, 1, id), 2, id))
	}
	for _, s := range strs {
		msg = bytesField(msg, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(msg)
	zw.Close()
	return buf.Bytes()
}

func parseGzipped(t *testing.T, data []byte) *cpuProfile {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCPUSharesOnSyntheticProfile checks the bucketing rule on a profile
// built by hand: a sample belongs to the package of its innermost ftckpt
// frame, to "go" when it has none, and the buckets of one workload sum
// to 1.
func TestCPUSharesOnSyntheticProfile(t *testing.T) {
	samples := []cpuSample{
		// runtime leaf under the kernel: the innermost ftckpt frame is sim, not mpi.
		{40, []string{"runtime.growslice", "ftckpt/internal/sim.(*Kernel).schedule", "ftckpt/internal/mpi.(*Fabric).Send", "ftckpt.Run", "main.runOp"}},
		// the three protocol packages fold into core.
		{20, []string{"ftckpt/internal/core/pcl.(*Pcl).onMarker", "ftckpt/internal/sim.(*Kernel).Run"}},
		// a GC worker has no ftckpt frame at all.
		{15, []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		// goroutine handoff leaf under an LP.
		{10, []string{"runtime.casgstatus", "runtime.gopark", "ftckpt/internal/sim.(*Proc).Advance", "ftckpt/internal/nas.(*BTModel).Step"}},
		// a generic function: the type arguments must not confuse the package.
		{5, []string{"ftckpt/internal/sweep.Run[go.shape.int,go.shape.struct { ftckpt/internal/expt.x int }]", "main.main"}},
		// the facade and packages without a row of their own.
		{5, []string{"ftckpt.buildConfig", "ftckpt.Run"}},
		{3, []string{"ftckpt/internal/platform.EthernetCluster", "ftckpt.buildConfig"}},
		// the placement helper belongs to sim; the benchmark's own frames to nobody.
		{2, []string{"ftckpt/internal/sim/placement.Block", "main.probe"}},
	}
	layers, gc, handoff, alloc := cpuShares(parseGzipped(t, encodeProfile(samples)))
	want := map[string]float64{"sim": 0.52, "core": 0.20, "go": 0.15, "sweep": 0.05, "other": 0.08}
	var sum float64
	for _, l := range cpuLayers {
		sum += layers[l]
		if math.Abs(layers[l]-want[l]) > 1e-9 {
			t.Errorf("%s.cpu_frac = %v, want %v", l, layers[l], want[l])
		}
	}
	if len(layers) > len(cpuLayers) {
		t.Errorf("samples charged to a bucket outside cpuLayers: %v", layers)
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("the cpu_frac buckets sum to %v, want 1", sum)
	}
	if math.Abs(gc-0.15) > 1e-9 || math.Abs(handoff-0.10) > 1e-9 || math.Abs(alloc-0.40) > 1e-9 {
		t.Errorf("go.gc %v, go.handoff %v, go.alloc %v; want 0.15, 0.10, 0.40", gc, handoff, alloc)
	}
}

// TestReadsARuntimeProfile feeds the reader what runtime/pprof really
// writes: the stacks must resolve to function names and the buckets must
// still sum to 1.
func TestReadsARuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	_ = x
	p := parseGzipped(t, buf.Bytes())
	if len(p.samples) == 0 {
		t.Skip("the profiler took no sample in 300 ms")
	}
	named := false
	for _, s := range p.samples {
		for _, fn := range s.stack {
			named = named || fn == "ftckpt/bench.TestReadsARuntimeProfile" || fn == "main.TestReadsARuntimeProfile"
		}
	}
	if !named {
		t.Errorf("no sample names this test function; first stack: %v", p.samples[0].stack)
	}
	layers, _, _, _ := cpuShares(p)
	var sum float64
	for _, v := range layers {
		sum += v
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("buckets sum to %v", sum)
	}
}
