package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// abortedStream emits a run that dies mid-flight: intervals opened (image
// store, blocked send, restart) with no matching end events, the way a
// DegradedError or deadline stop abandons a stream.
func abortedStream(s *ChromeStreamSink) {
	s.Emit(Event{Type: EvMarkerSent, T: 5 * time.Millisecond, Rank: 0, Wave: 1, Channel: 1})
	s.Emit(Event{Type: EvChannelBlocked, T: 8 * time.Millisecond, Rank: 2, Wave: 1})
	s.Emit(Event{Type: EvImageStoreBegin, T: 10 * time.Millisecond, Rank: 1, Wave: 1, Server: 0, Bytes: 1 << 20})
	s.Emit(Event{Type: EvRestartBegin, T: 12 * time.Millisecond, Rank: 3, Wave: 1})
	s.Emit(Event{Type: EvRankKilled, T: 14 * time.Millisecond, Rank: 3, Wave: 1})
}

// TestStreamSinkAbortedRunFlushes pins the failure-abort contract: when a
// run ends early, Close must still terminate the JSON document and end
// every open interval at the horizon — a truncated or dangling trace
// would break Perfetto imports of exactly the runs one most wants to see.
func TestStreamSinkAbortedRunFlushes(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeStreamSink(&buf)
	abortedStream(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("aborted stream is not valid JSON: %v\n%s", err, buf.String())
	}
	var horizon float64
	for _, ev := range doc.TraceEvents {
		if ts, ok := ev["ts"].(float64); ok && ts > horizon {
			horizon = ts
		}
	}
	// The three synthesized closes (blocked send, store, restart) must end
	// at the horizon, the last timestamp seen, and say they were aborted.
	closes := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			continue
		}
		closes++
		ts, _ := ev["ts"].(float64)
		dur, _ := ev["dur"].(float64)
		if ts+dur != horizon {
			t.Fatalf("aborted span %v ends at %v, want horizon %v", ev["name"], ts+dur, horizon)
		}
		if name, _ := ev["name"].(string); !strings.HasSuffix(name, abortedSuffix) {
			t.Fatalf("span %q closed at the horizon is not marked aborted", name)
		}
	}
	if closes != 3 {
		t.Fatalf("synthesized %d interval ends, want 3", closes)
	}
}

// TestStreamSinkAbortDeterministic pins byte-determinism of the aborted
// flush: the close order of abandoned spans must not depend on map order.
func TestStreamSinkAbortDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		s := NewChromeStreamSink(&buf)
		abortedStream(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := render()
	for i := 0; i < 10; i++ {
		if b := render(); !bytes.Equal(a, b) {
			t.Fatal("aborted stream rendering is nondeterministic")
		}
	}
}

// TestStreamSinkUseAfterCloseIsInert guards the error path that flushes a
// stream after the run already stopped: late events must not corrupt the
// closed document.
func TestStreamSinkUseAfterCloseIsInert(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeStreamSink(&buf)
	abortedStream(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	s.Emit(Event{Type: EvMarkerSent, T: time.Second, Rank: 1})
	if buf.Len() != n {
		t.Fatalf("post-Close emit wrote %d bytes past the terminator", buf.Len()-n)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("document corrupted by post-Close emit: %v", err)
	}
	if err := s.Close(); err != nil || buf.Len() != n {
		t.Fatalf("second Close: err %v, %d bytes written", err, buf.Len()-n)
	}
}
