package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict applies a metric's bound to two sides' samples.  The change
// regressed when its median is worse than the parent's by more than the
// bound.  Either call is only as good as the run-to-run spread: when the
// wider of the two quartile ranges, as a share of the parent's median,
// exceeds the bound, the ranges overlap by more than the bound can
// resolve and the pair is unresolved — neither a regression nor
// "unchanged" can be claimed.  A difference beyond the bound is likewise
// unresolved when a side has a single sample, which has no spread.
func verdict(d metricDef, a, b Summary) (string, float64) {
	if a.N == 0 || b.N == 0 || a.Median == 0 {
		return verdictUnresolved, math.NaN()
	}
	worse := (b.Median - a.Median) / math.Abs(a.Median)
	if d.Better == "higher" {
		worse = -worse
	}
	spread := math.Max(a.Q3-a.Q1, b.Q3-b.Q1) / math.Abs(a.Median)
	switch {
	case spread > d.Bound:
		return verdictUnresolved, worse
	case worse > d.Bound && (a.N < 2 || b.N < 2):
		return verdictUnresolved, worse // one sample has no spread to judge the difference by
	case worse > d.Bound:
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

func readResults(path string) (Results, error) {
	var r Results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one row per (workload, end-to-end metric) pair of
// two results documents — A the parent, B the change — and reports whether
// any pair regressed.  fail_frac regresses on any rise; sim_fingerprint is
// informational.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	byName := map[string]WorkloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	counts := map[string]int{}
	fmt.Fprintf(w, "%-18s %-16s %-12s %-12s %-9s %-7s %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return false, fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v, worse := verdict(d, sa, sb)
			counts[v]++
			fmt.Fprintf(w, "%-18s %-16s %-12.6g %-12.6g %-9s %-7s %s\n", wa.Name, d.Name, sa.Median, sb.Median,
				fmt.Sprintf("%+.2f%%", 100*worse), fmt.Sprintf("%.0f%%", 100*d.Bound), v)
		}
		v := verdictOK
		if wb.FailFrac > wa.FailFrac {
			v = verdictRegressed
		}
		counts[v]++
		fmt.Fprintf(w, "%-18s %-16s %-12.6g %-12.6g %-9s %-7s %s\n", wa.Name, "fail_frac", wa.FailFrac, wb.FailFrac, "", "any", v)
		same := "identical"
		if wa.Fingerprint != wb.Fingerprint {
			same = "DIFFERS (" + wa.Fingerprint + " vs " + wb.Fingerprint + ")"
		}
		fmt.Fprintf(w, "%-18s %-16s %s\n", wa.Name, "sim_fingerprint", same)
	}
	fmt.Fprintf(w, "%d ok, %d regressed, %d unresolved\n", counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved])
	return counts[verdictRegressed] > 0, nil
}
