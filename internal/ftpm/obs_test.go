package ftpm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"ftckpt/internal/failure"
	"ftckpt/internal/obs"
)

// collectRun executes cfg with a Collector attached and returns both.
func collectRun(t *testing.T, cfg Config) (Result, *obs.Collector) {
	t.Helper()
	col := obs.NewCollector()
	cfg.Sink = col
	res, _ := runOK(t, cfg)
	return res, col
}

// monotonic fails if the events' virtual timestamps ever step backwards
// (the hub serializes the simulation's single-threaded emission order).
func monotonic(t *testing.T, col *obs.Collector) {
	t.Helper()
	last := time.Duration(-1)
	for i, ev := range col.Events() {
		if ev.T < last {
			t.Fatalf("event %d (%v) at %v after %v", i, ev.Type, ev.T, last)
		}
		last = ev.T
	}
}

func TestObsPclWaveEvents(t *testing.T) {
	cfg := baseCfg(4)
	cfg.Protocol = ProtoPcl
	cfg.Interval = 20 * time.Millisecond
	res, col := collectRun(t, cfg)
	monotonic(t, col)
	if res.WavesCommitted == 0 {
		t.Fatal("no waves committed")
	}

	// Every rank sends a marker to every other rank each wave.
	waves := col.Count(obs.EvWaveCommit)
	np := cfg.NP
	if sent := col.Count(obs.EvMarkerSent); sent < waves*np*(np-1) {
		t.Fatalf("%d marker-sent for %d waves of %d ranks", sent, waves, np)
	}
	if recv := col.Count(obs.EvMarkerRecv); recv > col.Count(obs.EvMarkerSent) {
		t.Fatalf("more markers received (%d) than sent (%d)", recv, col.Count(obs.EvMarkerSent))
	}

	// Pcl blocks sends for the whole wave: every block must be released,
	// strictly later, on the same rank, and bracket that rank's snapshot.
	blocks, unblocks := col.Filter(obs.EvChannelBlocked), col.Filter(obs.EvChannelUnblocked)
	if len(blocks) == 0 || len(blocks) != len(unblocks) {
		t.Fatalf("%d blocks vs %d unblocks", len(blocks), len(unblocks))
	}
	// Pair them in stream order per rank.
	pending := map[int][]obs.Event{}
	for _, ev := range col.Events() {
		switch ev.Type {
		case obs.EvChannelBlocked:
			pending[ev.Rank] = append(pending[ev.Rank], ev)
		case obs.EvChannelUnblocked:
			q := pending[ev.Rank]
			if len(q) == 0 {
				t.Fatalf("rank %d unblocked while not blocked", ev.Rank)
			}
			b := q[len(q)-1]
			pending[ev.Rank] = q[:len(q)-1]
			if ev.T < b.T {
				t.Fatalf("rank %d unblocked at %v before block at %v", ev.Rank, ev.T, b.T)
			}
			if ev.Wave != b.Wave {
				t.Fatalf("rank %d block wave %d released as wave %d", ev.Rank, b.Wave, ev.Wave)
			}
		}
	}
	for r, q := range pending {
		if len(q) != 0 {
			t.Fatalf("rank %d finished blocked (%d spans open)", r, len(q))
		}
	}

	// Snapshots happen inside the blocked window; one LocalCkptEnd per
	// block, and the image stores the server acknowledged match Result.
	if col.Count(obs.EvLocalCkptEnd) != len(blocks) {
		t.Fatalf("%d snapshots for %d blocked windows", col.Count(obs.EvLocalCkptEnd), len(blocks))
	}
	if got := col.Count(obs.EvImageStoreEnd); got != res.LocalCkpts {
		t.Fatalf("%d stored images, Result.LocalCkpts %d", got, res.LocalCkpts)
	}
	// Pcl logs nothing.
	if n := col.Count(obs.EvMessageLogged); n != 0 {
		t.Fatalf("pcl logged %d messages", n)
	}
}

func TestObsVclLoggedMessages(t *testing.T) {
	cfg := baseCfg(4)
	cfg.Protocol = ProtoVcl
	cfg.Interval = 15 * time.Millisecond
	res, col := collectRun(t, cfg)
	monotonic(t, col)
	if res.WavesCommitted == 0 {
		t.Fatal("no waves committed")
	}
	// Result's logged-message count and bytes are the event stream's.
	logged := col.Filter(obs.EvMessageLogged)
	if len(logged) != res.LoggedMsgs {
		t.Fatalf("%d message-logged events, Result.LoggedMsgs %d", len(logged), res.LoggedMsgs)
	}
	var bytes int64
	for _, ev := range logged {
		if ev.Channel < 0 || ev.Channel == ev.Rank {
			t.Fatalf("logged event with bad channel: %+v", ev)
		}
		bytes += ev.Bytes
	}
	if bytes != res.LoggedBytes {
		t.Fatalf("logged %d bytes in events, Result.LoggedBytes %d", bytes, res.LoggedBytes)
	}
	// The scheduler (rank -2) initiates every wave's markers.
	schedSent := 0
	for _, ev := range col.Filter(obs.EvMarkerSent) {
		if ev.Rank == -2 {
			schedSent++
		}
	}
	if schedSent == 0 {
		t.Fatal("no scheduler-initiated markers")
	}
	// Non-blocking: no channel freeze events.
	if col.Count(obs.EvChannelBlocked) != 0 || col.Count(obs.EvSendDelayed) != 0 {
		t.Fatal("vcl emitted blocking events")
	}
}

func TestObsRestartEvents(t *testing.T) {
	cfg := baseCfg(4)
	cfg.Protocol = ProtoPcl
	cfg.Interval = 15 * time.Millisecond
	failAt := 40 * time.Millisecond
	cfg.Failures = failure.Plan{{At: failAt, Rank: 2}}
	res, col := collectRun(t, cfg)
	monotonic(t, col)
	if res.Restarts != 1 {
		t.Fatalf("restarts %d", res.Restarts)
	}

	kills := col.Filter(obs.EvRankKilled)
	if len(kills) != 1 {
		t.Fatalf("%d rank-killed events", len(kills))
	}
	if kills[0].Rank != 2 || kills[0].T != failAt {
		t.Fatalf("kill event %+v, want rank 2 at %v", kills[0], failAt)
	}
	begins, ends := col.Filter(obs.EvRestartBegin), col.Filter(obs.EvRestartEnd)
	if len(begins) != 1 || len(ends) != 1 {
		t.Fatalf("%d restart-begin, %d restart-end", len(begins), len(ends))
	}
	if begins[0].T < failAt {
		t.Fatalf("restart began at %v, before the kill at %v", begins[0].T, failAt)
	}
	if ends[0].T < begins[0].T {
		t.Fatalf("restart ended at %v before it began at %v", ends[0].T, begins[0].T)
	}
	if begins[0].Wave != kills[0].Wave {
		t.Fatalf("restart wave %d != recovery line %d", begins[0].Wave, kills[0].Wave)
	}
	// Aggregates follow the events.
	if res.Metrics.Tally[obs.EvRankKilled] != 1 {
		t.Fatal("failures counter wrong")
	}
	if h := res.Metrics.RestartTime; h.Count != 1 {
		t.Fatalf("restart histogram %+v", h)
	}
}

func TestObsMlogLocalRecovery(t *testing.T) {
	cfg := baseCfg(4)
	cfg.Protocol = ProtoMlog
	cfg.Interval = 15 * time.Millisecond
	cfg.Failures = failure.Plan{{At: 30 * time.Millisecond, Rank: 1}}
	res, col := collectRun(t, cfg)
	monotonic(t, col)
	if res.Restarts != 1 {
		t.Fatalf("restarts %d", res.Restarts)
	}
	// Pessimistic receiver-based logging: every delivered payload logs,
	// once — a message the recovery replays from the server is counted in
	// log.replayed, not logged again — and Mlog's logged bytes are
	// reported like Vcl's.
	var bytes int64
	for _, ev := range col.Filter(obs.EvMessageLogged) {
		bytes += ev.Bytes
	}
	if n := col.Count(obs.EvMessageLogged); n == 0 || n != res.LoggedMsgs || bytes == 0 || bytes != res.LoggedBytes {
		t.Fatalf("%d message-logged events of %d bytes, Result %d / %d", n, bytes, res.LoggedMsgs, res.LoggedBytes)
	}
	if col.Count(obs.EvMessageReplayed) == 0 {
		t.Fatal("the recovery replayed nothing: the scenario no longer separates logged from replayed")
	}
	if wb := res.WaveBreakdown; wb != (WaveBreakdown{}) {
		t.Fatalf("wave phases %+v for a protocol without waves", wb)
	}
	// Single-process recovery: the restart span is on the failed rank, not
	// the runtime track.
	begins := col.Filter(obs.EvRestartBegin)
	if len(begins) != 1 || begins[0].Rank != 1 {
		t.Fatalf("restart-begin %+v, want rank 1", begins)
	}
	// Uncoordinated commits carry the committing rank.
	sawRankCommit := false
	for _, ev := range col.Filter(obs.EvWaveCommit) {
		if ev.Rank >= 0 {
			sawRankCommit = true
		}
	}
	if !sawRankCommit {
		t.Fatal("no per-rank commits")
	}
	// No coordination traffic at all.
	if col.Count(obs.EvMarkerSent) != 0 {
		t.Fatal("mlog sent markers")
	}
}

// TestObsLineStream runs a Pcl job through a rank kill and a restart
// with a LineSink beside a Collector: the stream has one line per event,
// in emission order, with every field in its fixed place; only counter
// samples carry Detail, their metric name.
func TestObsLineStream(t *testing.T) {
	var buf bytes.Buffer
	col := obs.NewCollector()
	cfg := baseCfg(4)
	cfg.Protocol = ProtoPcl
	cfg.Interval = 20 * time.Millisecond
	cfg.MetricsSnapshot = 10 * time.Millisecond
	cfg.Failures = failure.Plan{{At: 50 * time.Millisecond, Rank: 0}}
	cfg.Sink = obs.NewHub(col, obs.NewLineSink(&buf))
	runOK(t, cfg)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	evs := col.Events()
	if len(lines) != len(evs) {
		t.Fatalf("%d lines for %d events", len(lines), len(evs))
	}
	for i, ev := range evs {
		want := fmt.Sprintf("%d %s %d %d %d %d %d %d %d %d %d %d",
			int64(ev.T), ev.Type, ev.Rank, ev.Wave, ev.Channel, ev.Node, ev.Server, ev.Level,
			ev.Bytes, ev.Seq, ev.Span, ev.Cause)
		if ev.Type == obs.EvCounterSample {
			want += " " + ev.Detail
		} else if ev.Detail != "" {
			t.Errorf("event %d (%s) carries Detail %q", i, ev.Type, ev.Detail)
		}
		if lines[i] != want {
			t.Fatalf("line %d: %q, want %q", i+1, lines[i], want)
		}
	}
	for _, kind := range []obs.EventType{obs.EvRankKilled, obs.EvRestartBegin,
		obs.EvWaveCommit, obs.EvJobComplete, obs.EvCounterSample} {
		if col.Count(kind) == 0 {
			t.Errorf("the run emitted no %s", kind)
		}
	}
}

// spanEnds maps each span-opening event type to the types that close it.
// A begin/end pair shares Event.Span, which is all the pairing needs.
var spanEnds = map[obs.EventType][]obs.EventType{
	obs.EvImageStoreBegin: {obs.EvImageStoreEnd},
	obs.EvLogShipBegin:    {obs.EvLogShipEnd},
	obs.EvDrainBegin:      {obs.EvDrainEnd},
	obs.EvLocalCkptBegin:  {obs.EvLocalCkptEnd},
	obs.EvChannelBlocked:  {obs.EvChannelUnblocked},
	obs.EvRestartBegin:    {obs.EvRestartEnd},
	obs.EvRepairBegin:     {obs.EvRepairEnd, obs.EvRepairAbort},
}

// openSpans returns the opening events of the given types that no
// closing event of the same Span matches, grouped by type.
func openSpans(col *obs.Collector, begins ...obs.EventType) []obs.Event {
	beginOf := make(map[obs.EventType]obs.EventType) // closing type -> opening type
	for _, b := range begins {
		for _, e := range spanEnds[b] {
			beginOf[e] = b
		}
	}
	closed := make(map[uint64]obs.EventType) // span -> opening type it closes
	for _, ev := range col.Events() {
		if b, ok := beginOf[ev.Type]; ok {
			closed[ev.Span] = b
		}
	}
	var open []obs.Event
	for _, b := range begins {
		for _, ev := range col.Filter(b) {
			if ev.Span == 0 || closed[ev.Span] != b {
				open = append(open, ev)
			}
		}
	}
	return open
}

func reportOpen(t *testing.T, open []obs.Event) {
	t.Helper()
	for _, ev := range open {
		t.Errorf("%v (rank %d, wave %d, level %d, span %d) opened at %v and never closed",
			ev.Type, ev.Rank, ev.Wave, ev.Level, ev.Span, ev.T)
	}
}

// TestSpansBalancedFailureFree: a run nothing interrupts closes every
// span it opens.  The 60 ms interval puts the ring's two waves at 60 and
// 120 ms, so the last image, log and drain land well before the ranks
// finalize at ~160 ms — a transfer still in flight at job completion
// would be legitimately open.
func TestSpansBalancedFailureFree(t *testing.T) {
	all := []obs.EventType{
		obs.EvImageStoreBegin, obs.EvLogShipBegin, obs.EvDrainBegin, obs.EvLocalCkptBegin,
		obs.EvChannelBlocked, obs.EvRestartBegin, obs.EvRepairBegin,
	}
	for _, proto := range []Proto{ProtoPcl, ProtoVcl, ProtoMlog} {
		for _, hier := range []bool{false, true} {
			name := string(proto) + "/flat"
			if hier {
				name = string(proto) + "/hier"
			}
			t.Run(name, func(t *testing.T) {
				cfg := baseCfg(4)
				if hier { // buffer, servers:2x2, pfs; incremental + compressed
					cfg = storageCfg()
					cfg.Storage.Levels[1].Replicas = 2
					cfg.Storage.Incremental = true
					cfg.Storage.Compress = true
				}
				cfg.Protocol = proto
				cfg.Interval = 60 * time.Millisecond
				res, col := collectRun(t, cfg)
				if res.WavesCommitted < 2 {
					t.Fatalf("%d waves committed, want the second (incremental) one too", res.WavesCommitted)
				}
				// The run must have opened what it claims to balance.
				must := []obs.EventType{obs.EvImageStoreBegin, obs.EvLocalCkptBegin}
				if proto == ProtoPcl {
					must = append(must, obs.EvChannelBlocked)
				} else {
					must = append(must, obs.EvLogShipBegin)
				}
				if hier && proto != ProtoMlog { // mlog drops the staging levels
					must = append(must, obs.EvDrainBegin)
				}
				for _, b := range must {
					if col.Count(b) == 0 {
						t.Errorf("no %v in the stream", b)
					}
				}
				reportOpen(t, openSpans(col, all...))
			})
		}
	}
}

// TestRestartSpansClosed: every recovery that completes closes the
// restart span it opened — the from-scratch relaunch (no wave committed
// yet), the global rollback to a committed wave, and mlog's single-rank
// restart.  Transfers the kill cancelled stay open by design, so only
// the restart family is checked.
func TestRestartSpansClosed(t *testing.T) {
	cases := []struct {
		name     string
		np       int
		proto    Proto
		interval time.Duration
		kill     failure.Plan
		fromZero bool
	}{
		{"scratch", 6, ProtoPcl, 10 * time.Second, failure.Plan{{At: 10 * time.Millisecond, Rank: 0}}, true},
		{"pcl", 4, ProtoPcl, 15 * time.Millisecond, failure.Plan{{At: 40 * time.Millisecond, Rank: 2}}, false},
		{"vcl", 4, ProtoVcl, 15 * time.Millisecond, failure.Plan{{At: 40 * time.Millisecond, Rank: 2}}, false},
		{"mlog", 4, ProtoMlog, 15 * time.Millisecond, failure.Plan{{At: 30 * time.Millisecond, Rank: 1}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseCfg(tc.np)
			cfg.Protocol = tc.proto
			cfg.Interval = tc.interval
			cfg.Failures = tc.kill
			res, col := collectRun(t, cfg)
			begins := col.Filter(obs.EvRestartBegin)
			if res.Restarts != 1 || len(begins) != 1 {
				t.Fatalf("%d restarts, %d restart-begin events, want one each", res.Restarts, len(begins))
			}
			if (begins[0].Wave == 0) != tc.fromZero {
				t.Fatalf("restart from wave %d, from-scratch=%v wanted", begins[0].Wave, tc.fromZero)
			}
			reportOpen(t, openSpans(col, obs.EvRestartBegin))
		})
	}
}
