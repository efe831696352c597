package obs

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestMergeMatchesSharedRegistry proves the determinism contract: merging
// per-run registries in run order produces byte-for-byte the registry a
// sequential sweep sharing one registry would have accumulated.
func TestMergeMatchesSharedRegistry(t *testing.T) {
	type op func(m *Metrics)
	runs := [][]op{
		{
			func(m *Metrics) { m.FabricMsgs += 3 },
			func(m *Metrics) { m.WaveCycle.Observe(5 * time.Microsecond) },
			func(m *Metrics) { m.WaveCycle.Observe(90 * time.Second) }, // overflow bucket
			func(m *Metrics) { m.CompletionS = 1 },
			func(m *Metrics) { m.LevelBytes[0] += 0 }, // a family member at zero
			func(m *Metrics) { m.Tally[EvWaveCommit] += 2 },
		},
		{
			func(m *Metrics) { m.FabricMsgs += 4 },
			func(m *Metrics) { m.WaveCycle.Observe(2 * time.Microsecond) }, // new global min
			func(m *Metrics) { m.RecvBlocked.Observe(3 * time.Millisecond) },
			func(m *Metrics) { m.CompletionS = 2 },
			func(m *Metrics) { NewMetricsSink(m) }, // the schema, zeros included
			func(m *Metrics) { m.ChannelBytes[[2]int32{1, 2}] += 5 },
		},
		{
			func(m *Metrics) { m.WaveCycle.Observe(200 * time.Second) }, // new global max
			func(m *Metrics) { m.CompletionS = 3 },
		},
	}

	shared := NewMetrics()
	for _, run := range runs {
		for _, o := range run {
			o(shared)
		}
	}

	merged := NewMetrics()
	for _, run := range runs {
		private := NewMetrics()
		for _, o := range run {
			o(private)
		}
		merged.Merge(private)
	}

	var a, b strings.Builder
	if err := shared.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("merged registry differs from shared registry:\nshared: %s\nmerged: %s", a.String(), b.String())
	}
}

func TestMergeHistExactExtremaAndBuckets(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.WaveCycle.Observe(10 * time.Millisecond)
	a.WaveCycle.Observe(20 * time.Millisecond)
	b.WaveCycle.Observe(time.Microsecond) // min lives in the second registry
	b.WaveCycle.Observe(time.Minute)      // so does the max

	m := NewMetrics()
	m.Merge(a)
	m.Merge(b)
	h := &m.WaveCycle
	if h.Count != 4 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.Min != time.Microsecond || h.Max != time.Minute {
		t.Fatalf("extrema not combined exactly: min=%v max=%v", h.Min, h.Max)
	}
	if h.Sum != 10*time.Millisecond+20*time.Millisecond+time.Microsecond+time.Minute {
		t.Fatalf("sum = %v", h.Sum)
	}
	var n int64
	for _, c := range h.Buckets {
		n += c
	}
	if n != 4 {
		t.Fatalf("bucket counts not merged: %v", h.Buckets)
	}
}

// TestMergeIntoEmptyPreservesSchema: a registry a MetricsSink wrote shows
// its whole schema at zero, and so does a fresh registry it is merged
// into; a field shown only once written stays out of both.
func TestMergeIntoEmptyPreservesSchema(t *testing.T) {
	src := NewMetrics()
	NewMetricsSink(src)
	dst := NewMetrics()
	dst.Merge(src)
	var a, b strings.Builder
	if err := errors.Join(src.WriteJSON(&a), dst.WriteJSON(&b)); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("merge into an empty registry changed the export:\n%s\nwant\n%s", b.String(), a.String())
	}
	for _, want := range []string{`"detect.false_suspicions": 0`, `"wave.cycle": {`} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("export lost %s: %s", want, b.String())
		}
	}
	for _, absent := range []string{"fabric.msgs", "mpi.recv_blocked", "job.completion_s", "ckpt.deferred"} {
		if strings.Contains(b.String(), absent) {
			t.Fatalf("export shows %s, which was never written: %s", absent, b.String())
		}
	}
}

// TestMergeEmptyRegistries pins the degenerate folds: empty into empty
// stays empty, and empty into populated leaves the populated registry
// byte-identical.
func TestMergeEmptyRegistries(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Merge(b)
	var out strings.Builder
	if err := a.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var fresh strings.Builder
	if err := NewMetrics().WriteJSON(&fresh); err != nil {
		t.Fatal(err)
	}
	if out.String() != fresh.String() {
		t.Fatalf("empty-into-empty merge changed the registry: %s", out.String())
	}

	pop := NewMetrics()
	pop.FabricMsgs += 7
	pop.WaveCycle.Observe(3 * time.Millisecond)
	pop.CompletionS = 2.5
	var before strings.Builder
	if err := pop.WriteJSON(&before); err != nil {
		t.Fatal(err)
	}
	pop.Merge(NewMetrics())
	var after strings.Builder
	if err := pop.WriteJSON(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Fatalf("empty merge mutated a populated registry:\nbefore: %s\nafter: %s",
			before.String(), after.String())
	}
}

// TestMergeSingleSampleExtrema covers the Count==1 histograms where
// Min==Max, and the touched-but-empty histogram whose zero Min must never
// clobber a real minimum.
func TestMergeSingleSampleExtrema(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.WaveCycle.Observe(5 * time.Millisecond)
	b.WaveCycle.Observe(2 * time.Millisecond)
	m := NewMetrics()
	m.Merge(a)
	if h := m.WaveCycle; h.Min != h.Max || h.Min != 5*time.Millisecond {
		t.Fatalf("single sample: min=%v max=%v, want both 5ms", h.Min, h.Max)
	}
	m.Merge(b)
	if h := m.WaveCycle; h.Min != 2*time.Millisecond || h.Max != 5*time.Millisecond {
		t.Fatalf("two singletons: min=%v max=%v", h.Min, h.Max)
	}

	// A histogram the schema shows empty has Count==0 and zero extrema;
	// folding it in either direction must not invent a 0ns minimum.
	empty := NewMetrics()
	NewMetricsSink(empty)
	m.Merge(empty)
	if h := m.WaveCycle; h.Min != 2*time.Millisecond {
		t.Fatalf("empty hist clobbered min: %v", h.Min)
	}
	adopt := NewMetrics()
	NewMetricsSink(adopt)
	adopt.Merge(m)
	if h := adopt.WaveCycle; h.Min != 2*time.Millisecond || h.Max != 5*time.Millisecond {
		t.Fatalf("touched registry did not adopt extrema: min=%v max=%v", h.Min, h.Max)
	}
}

// TestMergeOverflowBucket sends durations past the last HistBound (100s)
// on both sides and requires them to land in — and add across — the
// overflow bucket.
func TestMergeOverflowBucket(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.WaveCycle.Observe(150 * time.Second)
	a.WaveCycle.Observe(time.Millisecond)
	b.WaveCycle.Observe(100 * time.Second) // exactly the last bound: overflow by convention
	b.WaveCycle.Observe(3600 * time.Second)
	m := NewMetrics()
	m.Merge(a)
	m.Merge(b)
	h := m.WaveCycle
	if len(h.Buckets) != len(HistBounds)+1 {
		t.Fatalf("bucket layout: %d buckets for %d bounds", len(h.Buckets), len(HistBounds))
	}
	if got := h.Buckets[len(h.Buckets)-1]; got != 3 {
		t.Fatalf("overflow bucket = %d, want 3 (150s, 100s, 3600s): %v", got, h.Buckets)
	}
	if h.Max != 3600*time.Second {
		t.Fatalf("max = %v", h.Max)
	}
}

func TestMergeNilSafety(t *testing.T) {
	var nilM *Metrics
	nilM.Merge(NewMetrics()) // must not panic
	m := NewMetrics()
	m.Merge(nil)
	m.FabricMsgs++
	if m.Counter("fabric.msgs") != 1 {
		t.Fatal("registry corrupted by nil merge")
	}
}
