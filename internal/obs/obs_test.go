package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"ftckpt/internal/sim"
)

func TestEventTypeNames(t *testing.T) {
	for ty := EventType(0); ty < numEventTypes; ty++ {
		name := ty.String()
		if name == "" || name == "unknown" {
			t.Fatalf("event type %d has no name", ty)
		}
		if name != strings.ToLower(name) || strings.Contains(name, " ") {
			t.Fatalf("event type %d name %q is not kebab-case", ty, name)
		}
		// Every kind has a render row somebody filled in.  Only
		// EvImageDurable stays off the timeline: it coincides with the
		// store end that reached the quorum.
		switch r := renderTable[ty]; {
		case r.shape == shapeUnset:
			t.Errorf("%s has no row in renderTable", name)
		case r.shape == notRendered && ty != EvImageDurable:
			t.Errorf("%s is not rendered; every kind but %s shows on the timeline", name, EvImageDurable)
		case r.shape == end && renderTable[r.of].shape != begin:
			t.Errorf("%s closes %s, which is not a begin row", name, r.of)
		case r.shape == begin && r.key.format == "":
			t.Errorf("%s opens an interval without a span key", name)
		}
	}
	if numEventTypes.String() != "unknown" {
		t.Fatal("out-of-range type must stringify as unknown")
	}
}

func TestNilHubAndMetricsAreNoOps(t *testing.T) {
	var h *Hub
	h.Emit(Event{Type: EvWaveCommit}) // must not panic
	var m *Metrics
	if m.Counter("fabric.msgs") != 0 || m.Gauge("job.completion_s") != 0 || m.Hist("wave.cycle") != nil {
		t.Fatal("nil metrics returned values")
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil metrics JSON invalid: %q", buf.String())
	}
}

func TestHubFanout(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	h := NewHub(a, nil, b) // nils are skipped
	h.Emit(Event{Type: EvMarkerSent, Rank: 3})
	h.Emit(Event{Type: EvMarkerRecv, Rank: 4})
	for _, c := range []*Collector{a, b} {
		if len(c.Events()) != 2 || c.Count(EvMarkerSent) != 1 {
			t.Fatalf("fanout missed a sink: %v", c.Events())
		}
	}
	if got := a.Filter(EvMarkerRecv); len(got) != 1 || got[0].Rank != 4 {
		t.Fatalf("filter %v", got)
	}
}

// TestCollectorAcrossChunks: events that fill several chunks come back in
// emission order, and events emitted after Events was read join them.
func TestCollectorAcrossChunks(t *testing.T) {
	c := NewCollector()
	emit := func(from, to int) {
		for i := from; i < to; i++ {
			c.Emit(Event{Type: EventType(i % 2), Rank: i})
		}
	}
	check := func(n int) {
		evs := c.Events()
		if len(evs) != n || cap(evs) != n {
			t.Fatalf("Events holds %d (cap %d), want %d", len(evs), cap(evs), n)
		}
		for i, ev := range evs {
			if ev.Rank != i {
				t.Fatalf("event %d is rank %d", i, ev.Rank)
			}
		}
		if c.Count(1) != n/2 || len(c.Filter(0)) != n-n/2 {
			t.Fatalf("Count %d, Filter %d of %d events", c.Count(1), len(c.Filter(0)), n)
		}
	}
	emit(0, 2*collectorChunk+5)
	check(2*collectorChunk + 5)
	emit(2*collectorChunk+5, 3*collectorChunk+7)
	check(3*collectorChunk + 7)
}

func TestHistogram(t *testing.T) {
	var h Hist
	h.Observe(5 * time.Microsecond) // bucket 1 (< 10µs)
	h.Observe(2 * time.Millisecond) // bucket 4 (< 10ms)
	h.Observe(500 * time.Second)    // overflow
	if h.Count != 3 || h.Min != 5*time.Microsecond || h.Max != 500*time.Second {
		t.Fatalf("hist %+v", h)
	}
	if h.Buckets[1] != 1 || h.Buckets[4] != 1 || h.Buckets[len(HistBounds)] != 1 {
		t.Fatalf("buckets %v", h.Buckets)
	}
	want := (5*time.Microsecond + 2*time.Millisecond + 500*time.Second) / 3
	if h.Mean() != want {
		t.Fatalf("mean %v want %v", h.Mean(), want)
	}
}

func TestMetricsExportsDeterministic(t *testing.T) {
	build := func() *Metrics {
		m := NewMetrics()
		m.NetFlows += 9
		m.FabricMsgs++
		m.CompletionS = 0.25
		m.RecvBlocked.Observe(3 * time.Millisecond)
		return m
	}
	var j1, j2, c1, c2 bytes.Buffer
	if err := build().WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("JSON export nondeterministic")
	}
	var doc struct {
		Counters   map[string]int64          `json:"counters"`
		Histograms map[string]map[string]any `json:"histograms"`
	}
	if err := json.Unmarshal(j1.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters["net.flows"] != 9 || doc.Counters["fabric.msgs"] != 1 {
		t.Fatalf("counters %v", doc.Counters)
	}
	if doc.Histograms["mpi.recv_blocked"]["count"].(float64) != 1 {
		t.Fatalf("hist %v", doc.Histograms["mpi.recv_blocked"])
	}
	if err := build().WriteCSV(&c1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteCSV(&c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatal("CSV export nondeterministic")
	}
	lines := strings.Split(strings.TrimSpace(c1.String()), "\n")
	if lines[0] != "kind,name,field,value" {
		t.Fatalf("csv header %q", lines[0])
	}
	if len(lines) != 1+4+1+5 { // header, 4 counters (each pair shows together), 1 gauge, 5 hist fields
		t.Fatalf("csv rows:\n%s", c1.String())
	}
}

func TestLineSinkFixedFields(t *testing.T) {
	var buf bytes.Buffer
	s := NewLineSink(&buf)
	s.Emit(Event{Type: EvRankKilled, T: 20 * time.Millisecond, Rank: 3, Wave: 2, Channel: -1,
		Node: 1, Server: -1, Span: 41, Cause: 40})
	s.Emit(Event{Type: EvImageDurable, T: time.Second, Rank: 0, Wave: 1, Channel: -1, Node: -1,
		Server: -1, Level: 1, Bytes: 1 << 20, Seq: 7})
	// Detail is written for a counter sample only.
	s.Emit(Event{Type: EvWaveCommit, Rank: -1, Wave: 3, Channel: -1, Node: -1, Server: -1, Detail: "x"})
	s.Emit(Event{Type: EvCounterSample, T: 5, Rank: -1, Wave: -1, Channel: -1, Node: -1, Server: -1,
		Bytes: 12, Detail: "log.msgs"})
	want := "20000000 rank-killed 3 2 -1 1 -1 0 0 0 41 40\n" +
		"1000000000 image-durable 0 1 -1 -1 -1 1 1048576 7 0 0\n" +
		"0 wave-commit -1 3 -1 -1 -1 0 0 0 0 0\n" +
		"5 counter-sample -1 -1 -1 -1 -1 0 12 0 0 0 log.msgs\n"
	if buf.String() != want {
		t.Fatalf("stream\n%s\nwant\n%s", buf.String(), want)
	}
}

func TestMetricsSinkPairsSpans(t *testing.T) {
	m := NewMetrics()
	s := NewMetricsSink(m)
	at := func(ty EventType, t0 sim.Time, ev Event) {
		ev.Type, ev.T = ty, t0
		s.Emit(ev)
	}
	at(EvChannelBlocked, 10*time.Millisecond, Event{Rank: 2, Wave: 1})
	at(EvChannelUnblocked, 14*time.Millisecond, Event{Rank: 2, Wave: 1})
	at(EvImageStoreBegin, 14*time.Millisecond, Event{Rank: 2, Wave: 1, Server: 0, Bytes: 1 << 20})
	at(EvImageStoreEnd, 20*time.Millisecond, Event{Rank: 2, Wave: 1, Server: 0, Bytes: 1 << 20})
	at(EvRestartBegin, 30*time.Millisecond, Event{Rank: -1, Wave: 1})
	at(EvRestartEnd, 42*time.Millisecond, Event{Rank: -1, Wave: 1})
	at(EvMessageLogged, 5*time.Millisecond, Event{Rank: 1, Channel: 0, Bytes: 256})
	// A detection's latency runs from its Cause's death; a suspicion
	// without a Cause is false.
	at(EvComponentDead, 60*time.Millisecond, Event{Rank: 3, Span: 7})
	at(EvServerKilled, 61*time.Millisecond, Event{Server: 1, Span: 8})
	at(EvHeartbeatTimeout, 69*time.Millisecond, Event{Server: 1, Span: 9, Cause: 8})
	at(EvHeartbeatTimeout, 70*time.Millisecond, Event{Rank: 3, Span: 10, Cause: 7})
	at(EvHeartbeatTimeout, 70*time.Millisecond, Event{Rank: 4, Span: 11})

	if h := m.BlockedTime; h.Count != 1 || h.Sum != 4*time.Millisecond {
		t.Fatalf("blocked %+v", h)
	}
	if m.BlockedNs[2] != int64(4*time.Millisecond) {
		t.Fatal("per-rank blocked counter missing")
	}
	if h := m.ImageStoreTime; h.Count != 1 || h.Sum != 6*time.Millisecond {
		t.Fatalf("store %+v", h)
	}
	if m.ImageBytes != 1<<20 || m.ServerBytes[0] != 1<<20 {
		t.Fatal("image bytes not attributed")
	}
	if h := m.RestartTime; h.Count != 1 || h.Sum != 12*time.Millisecond {
		t.Fatalf("restart %+v", h)
	}
	if m.Tally[EvMessageLogged] != 1 || m.LoggedBytes != 256 || m.ChannelBytes[[2]int32{0, 1}] != 256 {
		t.Fatal("logged-message accounting wrong")
	}
	if h := m.DetectLatency; h.Count != 2 || h.Min != 8*time.Millisecond || h.Max != 10*time.Millisecond ||
		m.FalseSuspicions != 1 || m.Tally[EvHeartbeatTimeout] != 3 {
		t.Fatalf("detections %+v, %d false suspicions", h, m.FalseSuspicions)
	}
	// An end without a begin must not observe a bogus span.
	at(EvChannelUnblocked, 50*time.Millisecond, Event{Rank: 9})
	if h := m.BlockedTime; h.Count != 1 {
		t.Fatal("unpaired unblock observed")
	}
	// The schema exports a field this run never wrote.
	var out bytes.Buffer
	if err := m.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"pcl.delayed_sends": 0`) {
		t.Fatal("standard counters not in the export")
	}
}

// chromeDoc streams events through the exporter and parses the document.
func chromeDoc(t *testing.T, events []Event) (raw []byte, evs []map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	s := NewChromeStreamSink(&buf)
	for _, ev := range events {
		s.Emit(ev)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	return buf.Bytes(), doc.TraceEvents
}

func TestChromeTraceWellFormed(t *testing.T) {
	events := []Event{
		{Type: EvChannelBlocked, T: 10 * time.Millisecond, Rank: 0, Wave: 1, Channel: -1, Node: -1, Server: -1},
		{Type: EvMarkerSent, T: 10 * time.Millisecond, Rank: 0, Wave: 1, Channel: 1, Node: -1, Server: -1},
		{Type: EvChannelUnblocked, T: 12 * time.Millisecond, Rank: 0, Wave: 1, Channel: -1, Node: -1, Server: -1},
		{Type: EvImageStoreBegin, T: 12 * time.Millisecond, Rank: 0, Wave: 1, Channel: -1, Node: -1, Server: 0, Bytes: 4096},
		// The store never ends: aborted by a failure; must close at horizon.
		{Type: EvRankKilled, T: 30 * time.Millisecond, Rank: 1, Wave: 0, Channel: -1, Node: -1, Server: -1},
	}
	raw1, evs := chromeDoc(t, events)
	raw2, _ := chromeDoc(t, events)
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("chrome export nondeterministic")
	}

	var spans, instants, metas int
	var blocked, aborted map[string]any
	for _, ev := range evs {
		switch ev["ph"] {
		case "X":
			spans++
			switch name := ev["name"].(string); {
			case strings.Contains(name, "aborted"):
				aborted = ev
			case strings.HasPrefix(name, "blocked send"):
				blocked = ev
			}
		case "i":
			instants++
		case "M":
			metas++
		}
	}
	if spans != 2 { // blocked-send + aborted store
		t.Fatalf("%d spans", spans)
	}
	if instants != 2 { // marker-sent + rank killed
		t.Fatalf("%d instants", instants)
	}
	if metas < 4 { // 3 process names + at least rank 0's thread name
		t.Fatalf("%d metadata records", metas)
	}
	if blocked == nil || blocked["ts"].(float64) != 10000 || blocked["dur"].(float64) != 2000 {
		t.Fatalf("blocked-send span %v, want ts 10000 dur 2000", blocked)
	}
	if aborted == nil {
		t.Fatal("unclosed store span not closed at horizon")
	}
	// Horizon is the last event (30ms); store began at 12ms → 18ms span.
	if dur := aborted["dur"].(float64); dur != 18000 {
		t.Fatalf("aborted span dur %v µs", dur)
	}
}

// TestChromeTraceRepeatedKey: a second begin on a key that is still open
// (a wave re-run after a restart, with no span id to tell the attempts
// apart) must not swallow the first attempt: it closes, aborted, where
// the second begins, and the one end closes the second.
func TestChromeTraceRepeatedKey(t *testing.T) {
	_, evs := chromeDoc(t, []Event{
		{Type: EvChannelBlocked, T: 10 * time.Millisecond, Rank: 2, Wave: 1, Server: -1},
		{Type: EvChannelBlocked, T: 15 * time.Millisecond, Rank: 2, Wave: 1, Server: -1},
		{Type: EvChannelUnblocked, T: 18 * time.Millisecond, Rank: 2, Wave: 1, Server: -1},
	})
	type span struct {
		name    string
		ts, dur float64
	}
	var got []span
	for _, ev := range evs {
		if ev["ph"] == "X" {
			got = append(got, span{ev["name"].(string), ev["ts"].(float64), ev["dur"].(float64)})
		}
	}
	want := []span{
		{"blocked send (wave 1)" + abortedSuffix, 10000, 5000},
		{"blocked send (wave 1)", 15000, 3000},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("spans %+v, want %+v", got, want)
	}
}

// TestChromeTraceFlowPairs: a cause edge is an "s" at the origin of the
// cause span, written once, and an "f" at every consumer; a cause no event
// carried draws nothing.
func TestChromeTraceFlowPairs(t *testing.T) {
	_, evs := chromeDoc(t, []Event{
		{Type: EvMarkerSent, T: 1 * time.Millisecond, Rank: 0, Wave: 1, Channel: 1, Server: -1, Span: 7},
		{Type: EvMarkerRecv, T: 2 * time.Millisecond, Rank: 1, Wave: 1, Channel: 0, Server: -1, Span: 7},
		{Type: EvChannelBlocked, T: 2 * time.Millisecond, Rank: 1, Wave: 1, Server: -1, Span: 8, Cause: 7},
		{Type: EvSendDelayed, T: 3 * time.Millisecond, Rank: 1, Wave: 1, Channel: 0, Server: -1, Cause: 7},
		{Type: EvSendDelayed, T: 3 * time.Millisecond, Rank: 1, Wave: 1, Channel: 0, Server: -1, Cause: 99},
	})
	var flows []string
	for _, ev := range evs {
		if ev["cat"] == "flow" {
			flows = append(flows, fmt.Sprintf("%s@%v/%v:%v", ev["ph"], ev["ts"], ev["tid"], ev["id"]))
		}
	}
	want := "[s@1000/0:7 f@2000/1:7 f@3000/1:7]"
	if got := fmt.Sprint(flows); got != want {
		t.Fatalf("flows %s, want %s", got, want)
	}
}
