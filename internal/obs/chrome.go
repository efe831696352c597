package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"ftckpt/internal/sim"
)

// Chrome trace_event pids: one "process" per track family, one "thread"
// per rank / server.
const (
	pidRuntime = 0 // global events: commits, restarts, failures
	pidRanks   = 1 // tid = MPI rank
	pidServers = 2 // tid = checkpoint server index
)

// chromeEvent is one trace_event record.  appendRecord writes its fields
// in a fixed order, so the output is deterministic.
type chromeEvent struct {
	name     string
	cat, ph  string
	ts, dur  float64 // microseconds of virtual time; dur is written for "X" only
	pid, tid int
	id       uint64 // flow: the cause's span id
	args     []byte // a JSON object, or nil
}

// appendRecord appends ev as one JSON object.  The phase implies the
// fields Chrome wants beside it: a flow end binds to its enclosing slice
// ("bp":"e"), an instant is thread-scoped ("s":"t").
func appendRecord(b []byte, ev chromeEvent) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, ev.name)
	if ev.cat != "" {
		b = append(b, `,"cat":`...)
		b = appendString(b, ev.cat)
	}
	b = append(b, `,"ph":"`...)
	b = append(b, ev.ph...)
	b = append(b, `","ts":`...)
	b = strconv.AppendFloat(b, ev.ts, 'f', -1, 64)
	if ev.ph == "X" {
		b = append(b, `,"dur":`...)
		b = strconv.AppendFloat(b, ev.dur, 'f', -1, 64)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(ev.pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.tid), 10)
	switch ev.ph {
	case "s", "f":
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, ev.id, 10)
		if ev.ph == "f" {
			b = append(b, `,"bp":"e"`...)
		}
	case "i":
		b = append(b, `,"s":"t"`...)
	}
	if ev.args != nil {
		b = append(b, `,"args":`...)
		b = append(b, ev.args...)
	}
	return append(b, '}')
}

// appendString appends s as a JSON string.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// ChromeStreamSink is the Chrome trace_event exporter: it writes a JSON
// document loadable in chrome://tracing or Perfetto as events arrive, with
// one track per MPI rank, one per checkpoint server, and a runtime track
// for global events (commits, rollbacks, failures).  Every event renders
// through renderTable.
//
//   - An interval is one complete "X" record, written when its end
//     arrives.  Open intervals are keyed by the events' span id when the
//     emitter stamped one, else by the row's span key.  A second begin on
//     a key still open closes the first as aborted at that instant, so an
//     attempt a failure abandoned still shows.
//   - A cause edge is a flow arrow: an "s" at the origin of the cause span
//     (the first event that carried it), written at its first reference,
//     and an "f" at each consumer.
//   - Intervals still open at Close (transfers a failure cut short) end
//     at the trace horizon, the last timestamp seen, marked aborted.
//
// The sink keeps the named tracks, the open intervals and one fixed-size
// origin per span id, never an Event.  Output is deterministic: identical
// event streams produce identical bytes.  Close writes the closing
// bracket; the sink is inert after.
type ChromeStreamSink struct {
	w      io.Writer
	buf    []byte // the record being written
	err    error
	first  bool // next record is the first (no leading comma)
	closed bool // document terminated; late emits are dropped

	namedRank map[int]bool
	namedSrv  map[int]bool
	open      map[spanKey]openSpan
	opened    int               // intervals begun so far: Close's order
	origins   map[uint64]origin // span id → where its arrows start
	horizon   sim.Time          // end of intervals still open at Close
}

// openSpan is an interval's begin record waiting for its end.
type openSpan struct {
	rec chromeEvent
	seq int
}

// origin is where a span first appeared, and whether its flow start is
// written yet.
type origin struct {
	t       sim.Time
	tid     int32
	pid     int8
	started bool
}

// NewChromeStreamSink starts a trace document on w.  The caller owns w
// (buffering, closing the file); call Close to finish the JSON.
func NewChromeStreamSink(w io.Writer) *ChromeStreamSink {
	s := &ChromeStreamSink{w: w, first: true,
		namedRank: map[int]bool{}, namedSrv: map[int]bool{},
		open: map[spanKey]openSpan{}, origins: map[uint64]origin{}}
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
	s.buf = s.buf[:0]
	if !s.first {
		s.buf = append(s.buf, ",\n"...)
	}
	s.first = false
	s.buf = appendRecord(s.buf, ev)
	_, s.err = s.w.Write(s.buf)
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

// complete writes the interval begun by b as one "X" record ending at end.
func (s *ChromeStreamSink) complete(b chromeEvent, end float64, aborted bool) {
	b.ph, b.dur = "X", end-b.ts
	if aborted {
		b.name += abortedSuffix
	}
	s.record(b)
}

// flowTrack is the track an arrow starts or ends on: the server's for an
// event that names one, else the emitter's.
func flowTrack(ev Event) (pid, tid int) {
	if ev.Server >= 0 {
		return pidServers, ev.Server
	}
	return trackOf(ev.Rank)
}

// flow draws ev's cause edge: the cause's "s" on its first reference, then
// an "f" at ev.  A cause no event on this stream carried has no origin and
// draws nothing.
func (s *ChromeStreamSink) flow(ev Event) {
	o, ok := s.origins[ev.Cause]
	if !ok {
		return
	}
	if !o.started {
		o.started = true
		s.origins[ev.Cause] = o
		s.record(chromeEvent{name: "cause", cat: "flow", ph: "s", ts: usec(o.t), pid: int(o.pid), tid: int(o.tid), id: ev.Cause})
	}
	pid, tid := flowTrack(ev)
	s.record(chromeEvent{name: "cause", cat: "flow", ph: "f", ts: usec(ev.T), pid: pid, tid: tid, id: ev.Cause})
}

// Emit translates one event to trace records.  Implements Sink.  Events
// arriving after Close — possible when an aborted run's teardown races a
// caller flushing artifacts — are dropped rather than appended past the
// document terminator.
func (s *ChromeStreamSink) Emit(ev Event) {
	if s.err != nil || s.closed {
		return
	}
	if ev.T > s.horizon {
		s.horizon = ev.T
	}
	s.nameTracks(ev)
	if ev.Span != 0 {
		if _, seen := s.origins[ev.Span]; !seen {
			pid, tid := flowTrack(ev)
			s.origins[ev.Span] = origin{t: ev.T, tid: int32(tid), pid: int8(pid)}
		}
	}
	switch m := render(ev); m.shape {
	case instant, counter:
		s.record(m.rec)
	case begin:
		if prev, dup := s.open[m.key]; dup {
			s.complete(prev.rec, m.rec.ts, true)
		}
		s.open[m.key] = openSpan{m.rec, s.opened}
		s.opened++
	case end:
		if b, ok := s.open[m.key]; ok {
			delete(s.open, m.key)
			s.complete(b.rec, m.rec.ts, m.aborted)
		}
	}
	if ev.Cause != 0 {
		s.flow(ev)
	}
}

// Close ends every still-open interval at the horizon, in the order they
// were begun, terminates the JSON document, and reports any write error
// seen during the stream.  It runs on every exit path — normal
// completion, DegradedError, deadline — so an aborted run still leaves a
// valid, importable trace.  Closing twice is a no-op.
func (s *ChromeStreamSink) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	left := make([]openSpan, 0, len(s.open))
	for _, o := range s.open {
		left = append(left, o)
	}
	sort.Slice(left, func(i, j int) bool { return left[i].seq < left[j].seq })
	for _, o := range left {
		s.complete(o.rec, usec(s.horizon), true)
	}
	s.open, s.origins = nil, nil
	s.raw("]}\n")
	return s.err
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
	args := appendString([]byte(`{"name":`), name)
	return chromeEvent{name: kind, ph: "M", pid: pid, tid: tid, args: append(args, '}')}
}
