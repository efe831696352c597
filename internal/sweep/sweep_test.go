package sweep_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ftckpt/internal/obs"
	"ftckpt/internal/sweep"
)

func TestRunPreservesInputOrder(t *testing.T) {
	points := make([]int, 64)
	for i := range points {
		points[i] = i
	}
	for _, jobs := range []int{1, 3, 8} {
		got, err := sweep.Run(context.Background(), points,
			func(_ context.Context, i int, p int, _ sweep.Tracef) (int, error) {
				// Skew completion so later points tend to finish first.
				time.Sleep(time.Duration(len(points)-i) * 10 * time.Microsecond)
				return p * p, nil
			}, sweep.Opts{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("jobs=%d: result[%d] = %d", jobs, i, r)
			}
		}
	}
}

func TestRunTraceLinesStayInInputOrder(t *testing.T) {
	points := make([]int, 32)
	for i := range points {
		points[i] = i
	}
	var lines []string
	_, err := sweep.Run(context.Background(), points,
		func(_ context.Context, i int, p int, trace sweep.Tracef) (int, error) {
			time.Sleep(time.Duration(len(points)-i) * 10 * time.Microsecond)
			trace("point %d begin", p)
			trace("point %d end", p)
			return p, nil
		}, sweep.Opts{Jobs: 8, Trace: func(format string, args ...any) {
			lines = append(lines, fmt.Sprintf(format, args...))
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2*len(points) {
		t.Fatalf("%d lines", len(lines))
	}
	for i := range points {
		if lines[2*i] != fmt.Sprintf("point %d begin", i) || lines[2*i+1] != fmt.Sprintf("point %d end", i) {
			t.Fatalf("lines out of order around point %d: %q %q", i, lines[2*i], lines[2*i+1])
		}
	}
}

func TestRunReportsRealErrorNotCancellation(t *testing.T) {
	boom := errors.New("boom")
	points := make([]int, 40)
	var ran atomic.Int32
	_, err := sweep.Run(context.Background(), points,
		func(_ context.Context, i int, _ int, _ sweep.Tracef) (int, error) {
			ran.Add(1)
			if i == 5 {
				return 0, fmt.Errorf("point five: %w", boom)
			}
			time.Sleep(100 * time.Microsecond)
			return 0, nil
		}, sweep.Opts{Jobs: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "point five") {
		t.Fatalf("error lost its point description: %v", err)
	}
	// The failure cancels the unstarted tail of the sweep.
	if n := ran.Load(); n == int32(len(points)) {
		t.Fatalf("cancellation did not skip any point (%d ran)", n)
	}
}

func TestRunHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		_, err := sweep.Run(ctx, []int{1, 2, 3}, func(_ context.Context, _ int, _ int, _ sweep.Tracef) (int, error) {
			t.Fatal("fn ran under a cancelled context")
			return 0, nil
		}, sweep.Opts{Jobs: jobs})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs=%d: err = %v", jobs, err)
		}
	}
}

// TestRunMergedRegistryDeterminism hammers the concurrent-points /
// one-merged-registry pattern the harnesses use: every point writes a
// private obs.Metrics registry from its own worker goroutine, and the
// per-point registries are merged in input order afterwards.  Run under
// -race (CI does) this doubles as the data-race proof for the pattern;
// the assertions prove the merge is exact (counters, extrema, buckets —
// not recomputed from means) and independent of scheduling.
func TestRunMergedRegistryDeterminism(t *testing.T) {
	const n = 48
	points := make([]int, n)
	for i := range points {
		points[i] = i
	}
	merged := func(jobs int) *obs.Metrics {
		regs := make([]*obs.Metrics, n)
		_, err := sweep.Run(context.Background(), points,
			func(_ context.Context, i int, p int, _ sweep.Tracef) (struct{}, error) {
				m := obs.NewMetrics()
				for k := 0; k < 100; k++ {
					m.FabricMsgs++
					m.FabricPayloadBytes += int64(p)
					m.WaveCycle.Observe(time.Duration(p*k+1) * time.Microsecond)
				}
				m.CompletionS = float64(p)
				regs[i] = m
				return struct{}{}, nil
			}, sweep.Opts{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		agg := obs.NewMetrics()
		for _, r := range regs {
			agg.Merge(r)
		}
		return agg
	}
	agg := merged(8)
	if got := agg.FabricMsgs; got != n*100 {
		t.Fatalf("msgs = %d", got)
	}
	if got := agg.FabricPayloadBytes; got != 100*n*(n-1)/2 {
		t.Fatalf("bytes = %d", got)
	}
	if got := agg.CompletionS; got != n-1 {
		t.Fatalf("completion = %v (gauges must keep input-order last-write)", got)
	}
	h := agg.WaveCycle
	if h.Count != n*100 {
		t.Fatalf("span hist: %+v", h)
	}
	if h.Min != time.Microsecond {
		t.Fatalf("span min = %v", h.Min)
	}
	if h.Max != time.Duration((n-1)*99+1)*time.Microsecond {
		t.Fatalf("span max = %v", h.Max)
	}
	var bucketed int64
	for _, b := range h.Buckets {
		bucketed += b
	}
	if bucketed != h.Count {
		t.Fatalf("buckets sum %d != count %d", bucketed, h.Count)
	}
	// Identical regardless of parallelism.
	var a, b strings.Builder
	if err := agg.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged(1).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("merged registry differs between jobs=8 and jobs=1")
	}
}
