package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"ftckpt/internal/sim"
)

// HistBounds are the upper bounds (exclusive) of the virtual-time
// histogram buckets: decades from 1µs to 100s, plus an overflow bucket.
var HistBounds = []sim.Time{
	1000,           // 1µs
	10_000,         // 10µs
	100_000,        // 100µs
	1_000_000,      // 1ms
	10_000_000,     // 10ms
	100_000_000,    // 100ms
	1_000_000_000,  // 1s
	10_000_000_000, // 10s
	100_000_000_000,
}

// Hist is a virtual-time histogram with fixed decade buckets.
type Hist struct {
	Count    int64
	Sum      sim.Time
	Min, Max sim.Time
	Buckets  []int64 // len(HistBounds)+1, last = overflow
}

func newHist() *Hist { return &Hist{Buckets: make([]int64, len(HistBounds)+1)} }

// Observe records one duration.
func (h *Hist) Observe(d sim.Time) {
	if h.Count == 0 || d < h.Min {
		h.Min = d
	}
	if d > h.Max {
		h.Max = d
	}
	h.Count++
	h.Sum += d
	for i, b := range HistBounds {
		if d < b {
			h.Buckets[i]++
			return
		}
	}
	h.Buckets[len(HistBounds)]++
}

// Mean returns the average observed duration (0 when empty).
func (h *Hist) Mean() sim.Time {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / sim.Time(h.Count)
}

// merge folds other into h exactly: counts, sums and per-bucket tallies
// add, and the extrema are combined (never recomputed from means), so
// merging the histograms of several runs reproduces the histogram one
// shared registry would have accumulated observing the same durations.
func (h *Hist) merge(other *Hist) {
	if other.Count > 0 {
		if h.Count == 0 {
			h.Min, h.Max = other.Min, other.Max
		} else {
			if other.Min < h.Min {
				h.Min = other.Min
			}
			if other.Max > h.Max {
				h.Max = other.Max
			}
		}
	}
	h.Count += other.Count
	h.Sum += other.Sum
	for i, n := range other.Buckets {
		h.Buckets[i] += n
	}
}

// Metrics is the registry: counters, gauges and virtual-time histograms
// keyed by dotted names (e.g. "vcl.logged_bytes", "wave.spread").  All
// methods are safe on a nil receiver (no-ops), so optional instrumentation
// costs one nil check.  Exports are deterministic (keys sorted).
//
// A registry is single-writer: it has no internal synchronization, so all
// writes must come from the one simulation (or goroutine) that owns it.
// To aggregate across concurrent runs — the sweep harnesses, ftckpt.Sweep
// — give every run a private registry and fold the per-run registries
// into the aggregate with Merge after each run has completed; merging in
// run order reproduces exactly the registry a sequential sweep sharing
// one registry would have produced.
type Metrics struct {
	counters map[string]*int64 // a pointer, so a Counter handle can hold it
	gauges   map[string]float64
	hists    map[string]*Hist
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Hist),
	}
}

// counter returns the named counter's cell, creating it at 0.
func (m *Metrics) counter(name string) *int64 {
	c, ok := m.counters[name]
	if !ok {
		c = new(int64)
		m.counters[name] = c
	}
	return c
}

// hist returns the named histogram, creating it empty.
func (m *Metrics) hist(name string) *Hist {
	h, ok := m.hists[name]
	if !ok {
		h = newHist()
		m.hists[name] = h
	}
	return h
}

// Add increments a counter by v (creating it at 0).
func (m *Metrics) Add(name string, v int64) {
	if m == nil {
		return
	}
	*m.counter(name) += v
}

// Inc increments a counter by one.
func (m *Metrics) Inc(name string) { m.Add(name, 1) }

// Counter returns a counter's value (0 if absent or m is nil).
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	if c := m.counters[name]; c != nil {
		return *c
	}
	return 0
}

// Touch ensures a counter exists (so exports include its zero).
func (m *Metrics) Touch(name string) { m.Add(name, 0) }

// Set stores a gauge value.
func (m *Metrics) Set(name string, v float64) {
	if m == nil {
		return
	}
	m.gauges[name] = v
}

// Gauge returns a gauge's value (0 if absent or m is nil).
func (m *Metrics) Gauge(name string) float64 {
	if m == nil {
		return 0
	}
	return m.gauges[name]
}

// Observe records a duration into a histogram (creating it).
func (m *Metrics) Observe(name string, d sim.Time) {
	if m == nil {
		return
	}
	m.hist(name).Observe(d)
}

// TouchHist ensures a histogram exists (so exports include it empty).
func (m *Metrics) TouchHist(name string) {
	if m == nil {
		return
	}
	m.hist(name)
}

// Hist returns a histogram, or nil if absent.
func (m *Metrics) Hist(name string) *Hist {
	if m == nil {
		return nil
	}
	return m.hists[name]
}

// Merge folds every counter, gauge and histogram of other into m.
// Counters and histogram tallies combine exactly (sums add; histogram
// min/max and bucket counts merge, never recomputed from means); gauges
// take other's value, so merging per-run registries in run order matches
// the last-write-wins outcome of sequential runs sharing one registry.
// Merge must only be called after the run owning other has completed (see
// the single-writer note on Metrics).  A nil m or other is a no-op.
func (m *Metrics) Merge(other *Metrics) {
	if m == nil || other == nil {
		return
	}
	for name, v := range other.counters {
		*m.counter(name) += *v
	}
	for name, v := range other.gauges {
		m.gauges[name] = v
	}
	for name, oh := range other.hists {
		m.hist(name).merge(oh)
	}
}

// Counter is a handle on one counter of a registry, for a write site that
// runs per message: Add through it follows a pointer where Metrics.Add
// hashes the name.  It binds on its first Add, so a counter that is never
// written never appears in an export, exactly as with Metrics.Add.  A
// handle on a nil registry is a no-op.  Write through a pointer to the
// handle: binding stores into it.
type Counter struct {
	m    *Metrics
	name string
	c    *int64
}

// CounterHandle returns a handle on the named counter.  It creates nothing.
func (m *Metrics) CounterHandle(name string) Counter { return Counter{m: m, name: name} }

// Add increments the counter by v.
func (c *Counter) Add(v int64) {
	if c.c == nil {
		if c.m == nil {
			return
		}
		c.c = c.m.counter(c.name)
	}
	*c.c += v
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// HistHandle is Counter's twin for a histogram: it binds on its first
// Observe.
type HistHandle struct {
	m    *Metrics
	name string
	h    *Hist
}

// HistHandle returns a handle on the named histogram.  It creates nothing.
func (m *Metrics) HistHandle(name string) HistHandle { return HistHandle{m: m, name: name} }

// Observe records one duration.
func (h *HistHandle) Observe(d sim.Time) {
	if h.h == nil {
		if h.m == nil {
			return
		}
		h.h = h.m.hist(h.name)
	}
	h.h.Observe(d)
}

// histJSON is the export shape of one histogram.
type histJSON struct {
	Count   int64   `json:"count"`
	SumNs   int64   `json:"sum_ns"`
	MinNs   int64   `json:"min_ns"`
	MaxNs   int64   `json:"max_ns"`
	MeanNs  int64   `json:"mean_ns"`
	Bounds  []int64 `json:"bounds_ns"`
	Buckets []int64 `json:"buckets"`
}

func (h *Hist) export() histJSON {
	bounds := make([]int64, len(HistBounds))
	for i, b := range HistBounds {
		bounds[i] = int64(b)
	}
	return histJSON{
		Count: h.Count, SumNs: int64(h.Sum),
		MinNs: int64(h.Min), MaxNs: int64(h.Max), MeanNs: int64(h.Mean()),
		Bounds: bounds, Buckets: h.Buckets,
	}
}

// WriteJSON dumps the registry as indented JSON with sorted keys
// (encoding/json sorts map keys, so the output is deterministic).
func (m *Metrics) WriteJSON(w io.Writer) error {
	if m == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	hists := make(map[string]histJSON, len(m.hists))
	for name, h := range m.hists {
		hists[name] = h.export()
	}
	doc := struct {
		Counters   map[string]*int64   `json:"counters"`
		Gauges     map[string]float64  `json:"gauges"`
		Histograms map[string]histJSON `json:"histograms"`
	}{m.counters, m.gauges, hists}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteCSV dumps the registry as "kind,name,field,value" rows, sorted.
func (m *Metrics) WriteCSV(w io.Writer) error {
	if m == nil {
		return nil
	}
	var rows []string
	for name, v := range m.counters {
		rows = append(rows, fmt.Sprintf("counter,%s,value,%d", name, *v))
	}
	for name, v := range m.gauges {
		rows = append(rows, fmt.Sprintf("gauge,%s,value,%g", name, v))
	}
	for name, h := range m.hists {
		rows = append(rows,
			fmt.Sprintf("hist,%s,count,%d", name, h.Count),
			fmt.Sprintf("hist,%s,sum_ns,%d", name, int64(h.Sum)),
			fmt.Sprintf("hist,%s,min_ns,%d", name, int64(h.Min)),
			fmt.Sprintf("hist,%s,max_ns,%d", name, int64(h.Max)),
			fmt.Sprintf("hist,%s,mean_ns,%d", name, int64(h.Mean())),
		)
	}
	sort.Strings(rows)
	if _, err := io.WriteString(w, "kind,name,field,value\n"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := io.WriteString(w, r+"\n"); err != nil {
			return err
		}
	}
	return nil
}
