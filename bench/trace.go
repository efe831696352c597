package main

import (
	"encoding/json"
	"os"
	"time"
)

// Span is one timed region of the benchmark's own code around a call into
// the simulator: workload → iteration → Run/harness call, or layers →
// probe.  Times are host wall-clock (Unix ns) so spans of different child
// processes share one axis.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps the spans of the traced pass in memory.  A nil tracer
// records nothing, which is how the timed pass runs.  Spans nest by call
// order: the benchmark drives the simulator from one goroutine.
type tracer struct {
	workload string
	spans    []Span
	open     []int // indices into spans, innermost last
}

// start opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) start(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, Span{ID: i + 1, Parent: parent, Workload: t.workload, Name: name, Start: time.Now().UnixNano()})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].End = time.Now().UnixNano()
		t.open = t.open[:len(t.open)-1]
	}
}

// writeChromeTrace writes the spans of every child as one Chrome
// trace_event document: one process track per workload, complete ("X")
// events whose args carry the span and parent ids.
func writeChromeTrace(path string, groups [][]Span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	var origin int64
	for _, g := range groups {
		for _, s := range g {
			if origin == 0 || s.Start < origin {
				origin = s.Start
			}
		}
	}
	events := []event{}
	for pid, g := range groups {
		if len(g) == 0 {
			continue
		}
		events = append(events, event{Name: "process_name", Ph: "M", Pid: pid + 1, Tid: 1,
			Args: map[string]any{"name": g[0].Workload}})
		for _, s := range g {
			events = append(events, event{Name: s.Name, Ph: "X", Pid: pid + 1, Tid: 1,
				Ts: float64(s.Start-origin) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload}})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
