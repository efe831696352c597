package obs

import (
	"io"
	"strconv"
)

// LineSink writes every event as one line of space-separated fields in a
// fixed order,
//
//	T(ns) type Rank Wave Channel Node Server Level Bytes Seq Span Cause
//
// and a counter sample appends its metric name (Detail).  Nothing depends
// on a map, so identical event streams write identical bytes and two runs
// compare line by line.  The caller owns w: buffer it and flush it when
// the run returns (a bufio.Writer also reports a write error there; the
// sink drops the rest of the stream after one).
type LineSink struct {
	w   io.Writer
	buf []byte
	err error
}

// NewLineSink returns a sink writing one line per event to w.
func NewLineSink(w io.Writer) *LineSink { return &LineSink{w: w} }

// Emit writes the event's line.  Implements Sink.
func (s *LineSink) Emit(ev Event) {
	if s.err != nil {
		return
	}
	b := strconv.AppendInt(s.buf[:0], int64(ev.T), 10)
	b = append(append(b, ' '), ev.Type.String()...)
	for _, v := range [...]int64{int64(ev.Rank), int64(ev.Wave), int64(ev.Channel),
		int64(ev.Node), int64(ev.Server), int64(ev.Level), ev.Bytes} {
		b = strconv.AppendInt(append(b, ' '), v, 10)
	}
	for _, v := range [...]uint64{ev.Seq, ev.Span, ev.Cause} {
		b = strconv.AppendUint(append(b, ' '), v, 10)
	}
	if ev.Type == EvCounterSample {
		b = append(append(b, ' '), ev.Detail...)
	}
	s.buf = append(b, '\n')
	_, s.err = s.w.Write(s.buf)
}
