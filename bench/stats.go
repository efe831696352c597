package main

import (
	"math"
	"sort"
)

// Summary describes the samples of one end-to-end metric: the median the
// bounds apply to, the extremes, and the quartiles -compare uses as the
// run-to-run spread.  No workload takes ten timed iterations, so no higher
// percentile is reported (a percentile needs ten samples beyond it).
type Summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize reduces samples to a Summary.  The cut points are those of
// Python's statistics.quantiles(values, n=4) — the rule the acceptance
// driver applies to ten runs — so a spread computed here and one computed
// there agree (from three samples up; Python extrapolates from two).
func summarize(unit string, samples []float64) Summary {
	s := Summary{Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	x := append([]float64(nil), samples...)
	sort.Float64s(x)
	s.Min, s.Max = x[0], x[len(x)-1]
	s.Q1, s.Median, s.Q3 = quantile(x, 1), quantile(x, 2), quantile(x, 3)
	return s
}

// quantile returns the i-th quartile of sorted x by the exclusive method:
// the value at position i*(n+1)/4 (1-based), interpolated linearly and
// clamped to the sample range.
func quantile(x []float64, i int) float64 {
	n := len(x)
	if n == 1 {
		return x[0]
	}
	pos := float64(i) * float64(n+1) / 4
	j := int(math.Floor(pos))
	switch {
	case j < 1:
		return x[0]
	case j >= n:
		return x[n-1]
	}
	return x[j-1] + (pos-float64(j))*(x[j]-x[j-1])
}

func median(samples []float64) float64 { return summarize("", samples).Median }
