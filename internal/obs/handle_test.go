package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ftckpt/internal/sim"
)

// TestHandlesMatchNames: a Counter or HistHandle is another way to write
// the same registry, not a second registry.  The same writes made by name
// and through handles export byte-identical JSON and CSV and merge into
// identical aggregates; a handle that is bound but never written adds no
// key; and a handle on a nil registry is a no-op.
func TestHandlesMatchNames(t *testing.T) {
	type write struct {
		name string
		v    int64    // a counter write
		d    sim.Time // a histogram write when v is 0
	}
	writes := []write{
		{name: "msgs", v: 3},
		{name: "span", d: 5 * time.Microsecond},
		{name: "touched", v: 2}, // Touch-ed first in both registries
		{name: "msgs", v: 4},
		{name: "span", d: 90 * time.Second}, // overflow bucket
		{name: "other", d: 3 * time.Millisecond},
		{name: "bytes", v: 1 << 40},
	}
	byName, byHandle := NewMetrics(), NewMetrics()
	counters := map[string]*Counter{}
	hists := map[string]*HistHandle{}
	for _, m := range []*Metrics{byName, byHandle} {
		m.Touch("touched")
		m.TouchHist("empty")
		m.Set("done", 1)
	}
	byHandle.CounterHandle("never.written")
	byHandle.HistHandle("never.observed")
	for _, w := range writes {
		if w.v != 0 {
			byName.Add(w.name, w.v)
			if counters[w.name] == nil {
				c := byHandle.CounterHandle(w.name)
				counters[w.name] = &c
			}
			counters[w.name].Add(w.v)
			continue
		}
		byName.Observe(w.name, w.d)
		if hists[w.name] == nil {
			h := byHandle.HistHandle(w.name)
			hists[w.name] = &h
		}
		hists[w.name].Observe(w.d)
	}
	exports := func(m *Metrics) (string, string) {
		var j, c bytes.Buffer
		if err := m.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	nj, nc := exports(byName)
	hj, hc := exports(byHandle)
	if nj != hj {
		t.Errorf("JSON differs:\nby name\n%s\nby handle\n%s", nj, hj)
	}
	if nc != hc {
		t.Errorf("CSV differs:\nby name\n%s\nby handle\n%s", nc, hc)
	}
	if strings.Contains(hj, "never.") {
		t.Errorf("a handle never written shows in the export:\n%s", hj)
	}

	// Merged into aggregates that already hold one of the names, and
	// written on through a handle bound before the merge.
	aggName, aggHandle := NewMetrics(), NewMetrics()
	aggName.Add("msgs", 10)
	aggHandle.Add("msgs", 10)
	bound := aggHandle.CounterHandle("msgs")
	bound.Add(0)
	aggName.Merge(byName)
	aggHandle.Merge(byHandle)
	aggName.Add("msgs", 1)
	bound.Add(1)
	nj, _ = exports(aggName)
	hj, _ = exports(aggHandle)
	if nj != hj {
		t.Errorf("merged aggregates differ:\nby name\n%s\nby handle\n%s", nj, hj)
	}
	if got := aggHandle.Counter("msgs"); got != 18 {
		t.Errorf("merged msgs = %d, want 18", got)
	}

	var none *Metrics
	c, h := none.CounterHandle("x"), none.HistHandle("y")
	c.Inc()
	h.Observe(time.Second)
	if none.Counter("x") != 0 || none.Hist("y") != nil {
		t.Error("a handle on a nil registry wrote something")
	}
}
