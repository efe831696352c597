package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event pids: one "process" per track family, one "thread"
// per rank / server.
const (
	pidRuntime = 0 // global events: commits, restarts, failures
	pidRanks   = 1 // tid = MPI rank
	pidServers = 2 // tid = checkpoint server index
)

// chromeEvent is one trace_event record.  Field order (fixed by the
// struct) plus sorted Args maps make the marshalled output deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds of virtual time
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Id   any            `json:"id,omitempty"` // flow: the cause's span id; async interval: a string
	Bp   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(t int64) float64 { return float64(t) / 1e3 }

// WriteChromeTrace exports events as a Chrome trace_event JSON document —
// loadable in chrome://tracing or Perfetto — with one track per MPI rank,
// one per checkpoint server, and a runtime track for global events
// (commits, rollbacks, failures).  Spans are virtual-time intervals:
// Pcl's per-rank blocked-send windows, per-image store transfers on the
// server tracks, log shipments, restarts.  Point events (markers, logged
// messages, delayed packets, snapshots, commits) render as instants.
// Output is deterministic: identical event streams produce identical
// bytes.
func WriteChromeTrace(w io.Writer, events []Event) error {
	var out []chromeEvent
	var maxTs float64 // the trace horizon

	// Track naming metadata, emitted for every tid seen.
	ranks := map[int]bool{}
	servers := map[int]bool{}

	spans := map[string]chromeEvent{} // key → begin waiting for its end
	var spanOrder []string            // deterministic sweep of unclosed spans
	closeSpan := func(key string, ts float64, aborted bool) {
		s, ok := spans[key]
		if !ok {
			return
		}
		delete(spans, key)
		if aborted {
			s.Name += abortedSuffix
		}
		s.Ph, s.Dur = "X", ts-s.Ts
		out = append(out, s)
	}

	// Causality: the first event carrying each span id anchors the span's
	// origin; every event naming that span as its Cause becomes a flow
	// arrow from the origin in Perfetto ("s" at origin, "f" at consumer).
	spanOrigin := map[uint64]chromeEvent{}
	var flows []chromeEvent // the "f" ends, Id = the cause
	flowAt := func(ev Event) chromeEvent {
		pid, tid := trackOf(ev.Rank)
		if ev.Server >= 0 {
			pid, tid = pidServers, ev.Server
		}
		return chromeEvent{Name: "cause", Cat: "flow", Ts: usec(int64(ev.T)), Pid: pid, Tid: tid}
	}

	for _, ev := range events {
		if ts := usec(int64(ev.T)); ts > maxTs {
			maxTs = ts
		}
		if ev.Rank >= 0 {
			ranks[ev.Rank] = true
		}
		if ev.Server >= 0 {
			servers[ev.Server] = true
		}
		if ev.Span != 0 {
			if _, seen := spanOrigin[ev.Span]; !seen {
				spanOrigin[ev.Span] = flowAt(ev)
			}
		}
		if ev.Cause != 0 {
			f := flowAt(ev)
			f.Ph, f.Bp, f.Id = "f", "e", ev.Cause
			flows = append(flows, f)
		}
		switch m := render(ev); m.shape {
		case instant, counter:
			out = append(out, m.rec)
		case begin:
			if _, dup := spans[m.key]; !dup {
				spanOrder = append(spanOrder, m.key)
			}
			spans[m.key] = m.rec
		case end:
			closeSpan(m.key, m.rec.Ts, m.aborted)
		}
	}

	// Flow arrows: one "s" per referenced span origin (first reference
	// wins), one "f" per consumer, in stream order — deterministic.
	started := map[uint64]bool{}
	for _, f := range flows {
		cause := f.Id.(uint64)
		org, ok := spanOrigin[cause]
		if !ok {
			continue
		}
		if !started[cause] {
			started[cause] = true
			org.Ph, org.Id = "s", cause
			out = append(out, org)
		}
		out = append(out, f)
	}

	// Close spans left open (transfers aborted by a failure) at the trace
	// horizon, in the order they were opened.
	for _, key := range spanOrder {
		closeSpan(key, maxTs, true)
	}

	// Track metadata, sorted for determinism.
	meta := []chromeEvent{
		metaName("process_name", pidRuntime, 0, "runtime"),
		metaName("process_name", pidRanks, 0, "mpi ranks"),
		metaName("process_name", pidServers, 0, "ckpt servers"),
	}
	for _, r := range sortedKeys(ranks) {
		meta = append(meta, metaName("thread_name", pidRanks, r, fmt.Sprintf("rank %d", r)))
	}
	for _, s := range sortedKeys(servers) {
		meta = append(meta, metaName("thread_name", pidServers, s, fmt.Sprintf("server %d", s)))
	}

	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{append(meta, out...), "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// trackOf maps an emitter to a (pid, tid): MPI ranks to the rank tracks,
// the runtime (-1) and the Vcl scheduler (-2) to the runtime track.
func trackOf(rank int) (pid, tid int) {
	if rank >= 0 {
		return pidRanks, rank
	}
	return pidRuntime, 0
}

func metaName(kind string, pid, tid int, name string) chromeEvent {
	return chromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name}}
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// WriteChromeTrace is also available on the Collector directly.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, c.events)
}
