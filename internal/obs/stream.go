package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromeStreamSink writes a Chrome trace_event JSON document incrementally
// as events arrive, so a trace can be exported without retaining the run's
// event history in memory (a Collector at NP=1024 holds every event just
// to serialize them at the end; this sink holds O(NP) track-name state).
//
// Both exporters render events through renderTable; the differences from
// WriteChromeTrace are forced by statelessness:
//
//   - Intervals are async begin/end pairs ("b"/"e") instead of complete
//     "X" events — Perfetto pairs them by (cat, id, name), all of which
//     are reconstructible from the end event's fields alone.
//   - No flow arrows: rendering a cause edge needs the coordinates of the
//     origin event, which a streaming writer has already forgotten.  Use
//     the collector-based exporter when causality arrows matter.
//   - Intervals still open at Close (transfers aborted by a failure) are
//     ended at the last timestamp seen, mirroring the batch exporter's
//     close-at-horizon for aborted spans.  Only the open set is retained,
//     so memory stays bounded.
//
// Output is deterministic: identical event streams produce identical
// bytes.  Close writes the closing bracket; the sink is unusable after.
type ChromeStreamSink struct {
	w      io.Writer
	err    error
	first  bool // next record is the first (no leading comma)
	closed bool // document terminated; late emits are dropped

	namedRank map[int]bool
	namedSrv  map[int]bool
	open      map[string]chromeEvent // async spans begun but not yet ended
	lastTs    float64                // horizon for spans still open at Close
}

// NewChromeStreamSink starts a streaming trace document on w.  The caller
// owns w (buffering, closing the file); call Close to finish the JSON.
func NewChromeStreamSink(w io.Writer) *ChromeStreamSink {
	s := &ChromeStreamSink{w: w, first: true,
		namedRank: map[int]bool{}, namedSrv: map[int]bool{},
		open: map[string]chromeEvent{}}
	s.raw(`{"displayTimeUnit":"ms","traceEvents":[`)
	s.record(metaName("process_name", pidRuntime, 0, "runtime"))
	s.record(metaName("process_name", pidRanks, 0, "mpi ranks"))
	s.record(metaName("process_name", pidServers, 0, "ckpt servers"))
	return s
}

func (s *ChromeStreamSink) raw(text string) {
	if s.err != nil {
		return
	}
	_, s.err = io.WriteString(s.w, text)
}

func (s *ChromeStreamSink) record(ev chromeEvent) {
	if s.err != nil {
		return
	}
	if !s.first {
		s.raw(",\n")
	}
	s.first = false
	b, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	_, s.err = s.w.Write(b)
}

// nameTracks lazily emits thread-name metadata the first time a rank or
// server track appears, since a streaming writer cannot front-load them.
func (s *ChromeStreamSink) nameTracks(ev Event) {
	if ev.Rank >= 0 && !s.namedRank[ev.Rank] {
		s.namedRank[ev.Rank] = true
		s.record(metaName("thread_name", pidRanks, ev.Rank, fmt.Sprintf("rank %d", ev.Rank)))
	}
	if ev.Server >= 0 && !s.namedSrv[ev.Server] {
		s.namedSrv[ev.Server] = true
		s.record(metaName("thread_name", pidServers, ev.Server, fmt.Sprintf("server %d", ev.Server)))
	}
}

// async writes one half of an async interval.  The render table's
// composite key repeats when a wave aborted by a failure re-runs after the
// restart; the event's span id is unique per attempt, so prefer it
// whenever the emitter stamped one.
func (s *ChromeStreamSink) async(m mark, span uint64) {
	id := m.key
	if span != 0 {
		id = fmt.Sprintf("sp:%d", span)
	}
	m.rec.Cat, m.rec.Ph, m.rec.Id = "span", "e", id
	if m.shape == begin {
		m.rec.Ph = "b"
		s.open[id] = m.rec
	} else {
		delete(s.open, id)
	}
	s.record(m.rec)
}

// Emit translates one event to trace records.  Implements Sink.  Events
// arriving after Close — possible when an aborted run's teardown races a
// caller flushing artifacts — are dropped rather than appended past the
// document terminator.
func (s *ChromeStreamSink) Emit(ev Event) {
	if s.err != nil || s.closed {
		return
	}
	if ts := usec(int64(ev.T)); ts > s.lastTs {
		s.lastTs = ts
	}
	s.nameTracks(ev)
	switch m := render(ev); m.shape {
	case instant, counter:
		s.record(m.rec)
	case begin, end:
		s.async(m, ev.Span)
	}
}

// Close ends any still-open interval at the horizon, terminates the JSON
// document, and reports any write error seen during the stream.  It runs
// on every exit path — normal completion, DegradedError, deadline — so an
// aborted run still leaves a valid, importable trace.  Closing twice is
// a no-op.
func (s *ChromeStreamSink) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	ids := make([]string, 0, len(s.open))
	for id := range s.open {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic close order for aborted spans
	for _, id := range ids {
		b := s.open[id]
		s.record(chromeEvent{Name: b.Name, Cat: b.Cat, Ph: "e",
			Ts: s.lastTs, Pid: b.Pid, Tid: b.Tid, Id: id})
	}
	s.open = nil
	s.raw("]}\n")
	return s.err
}
