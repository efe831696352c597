package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"ftckpt/internal/sim"
)

// HistBounds are the upper bounds (exclusive) of the virtual-time
// histogram buckets: decades from 1µs to 100s, plus an overflow bucket.
var HistBounds = [...]sim.Time{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11}

// Hist is a virtual-time histogram with fixed decade buckets.
type Hist struct {
	Count    int64
	Sum      sim.Time
	Min, Max sim.Time
	Buckets  [len(HistBounds) + 1]int64 // last = overflow
}

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
			h.Min, h.Max = min(h.Min, other.Min), max(h.Max, other.Max)
		}
	}
	h.Count += other.Count
	h.Sum += other.Sum
	for i, n := range other.Buckets {
		h.Buckets[i] += n
	}
}

// Metrics is a run's ledger: the cost decomposition the MetricsSink folds
// from the event stream, and the traffic mpi.Fabric and simnet.Network
// count per packet and per flow.  Writers set its fields; table names
// them for the exports and the by-name reads (Counter, Gauge, Hist; safe
// on a nil m).  A registry has one writer, the run that owns it: to
// aggregate concurrent runs (sweeps), Merge each run's private registry
// in run order once it completed, which reproduces the registry a
// sequential sweep sharing one would have produced.
type Metrics struct {
	// Tally[t] counts the events of type t; the exports and Merge carry
	// the types table names.
	Tally [numEventTypes]int64

	LoggedBytes, ImageBytes, LogShipBytes, DrainBytes int64 // the events' Bytes
	FalseSuspicions                                   int64 // heartbeat timeouts without a Cause
	FabricMsgs, FabricPayloadBytes                    int64 // per packet sent
	NetFlows, NetBytesMoved                           int64 // per flow delivered
	CompletionS                                       float64

	BlockedTime, ImageStoreTime, RestartTime, DrainTime Hist
	WaveSpread, WaveTransfer, WaveCycle                 Hist // the phases of wavePhase
	DetectLatency, RepairLatency, RecvBlocked           Hist

	// Per-index families: an index is exported once written.
	BlockedNs     map[int]int64      // rank → blocked-send ns
	ServerBytes   map[int]int64      // server → image bytes stored on it
	ServerStoreNs map[int]int64      // server → image-store ns
	LevelBytes    map[int]int64      // level → buffer-store and drain bytes landing there
	ChannelBytes  map[[2]int32]int64 // (src, dst) → logged bytes

	// full is set by a MetricsSink (and by Merge from a registry that had
	// one): the sink's fields then export even at zero, so a Pcl run still
	// shows log.bytes = 0 and a Vcl run pcl.delayed_sends = 0.
	full bool
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{BlockedNs: map[int]int64{}, ServerBytes: map[int]int64{}, ServerStoreNs: map[int]int64{},
		LevelBytes: map[int]int64{}, ChannelBytes: map[[2]int32]int64{}}
}

// stat is one field of a schema: its dotted name (a family's members
// append their index to it), its cell, and whether an export shows it.
type stat[T any] struct {
	name  string
	v     *T
	shown bool
}

// schema is table's value: arrays, so a Sample allocates nothing, sized
// so that a field added to table without its count does not compile.
type schema struct {
	counters [31]stat[int64] // the first sampled are Sample's, in its frozen order
	gauges   [1]stat[float64]
	hists    [10]stat[Hist]
	families [4]stat[map[int]int64]
}

const sampled = 9

// table maps each field of m to its dotted name; it is the only place the
// names exist.  A field shows with the sink's schema (m.full) or, for
// traffic, Mlog's deferred ticks, blocked receives and the completion
// time, once written.  ChannelBytes is "log.bytes.ch<src>-<dst>".
func (m *Metrics) table() schema {
	on, t := m.full, &m.Tally
	fabric, net := m.FabricMsgs != 0, m.NetFlows != 0
	return schema{
		counters: [...]stat[int64]{
			{"markers.sent", &t[EvMarkerSent], on}, {"pcl.delayed_sends", &t[EvSendDelayed], on},
			{"log.msgs", &t[EvMessageLogged], on}, {"log.bytes", &m.LoggedBytes, on},
			{"ckpt.local", &t[EvLocalCkptEnd], on}, {"ckpt.image_bytes", &m.ImageBytes, on},
			{"waves.committed", &t[EvWaveCommit], on}, {"failures", &t[EvRankKilled], on},
			{"log.replayed", &t[EvMessageReplayed], on},

			{"markers.recv", &t[EvMarkerRecv], on}, {"pcl.delayed_recvs", &t[EvRecvDelayed], on},
			{"ckpt.log_bytes", &m.LogShipBytes, on}, {"failures.server", &t[EvServerKilled], on},
			{"detect.timeouts", &t[EvHeartbeatTimeout], on}, {"detect.false_suspicions", &m.FalseSuspicions, on},
			{"ckpt.failover", &t[EvReplicaFailover], on}, {"ckpt.store_retry", &t[EvStoreRetry], on},
			{"ckpt.quorum_lost", &t[EvQuorumLost], on}, {"degraded.stops", &t[EvDegraded], on},
			{"failures.survived", &t[EvProcFailed], on}, {"repairs", &t[EvRepairEnd], on},
			{"app.ckpts", &t[EvAppCkpt], on}, {"app.restores", &t[EvAppRestore], on},
			{"ckpt.drain_bytes", &m.DrainBytes, on}, {"failures.buffer", &t[EvBufferKilled], on},
			{"failures.pfs", &t[EvPFSKilled], on},

			{"ckpt.deferred", &t[EvCkptDeferred], t[EvCkptDeferred] != 0},
			{"fabric.msgs", &m.FabricMsgs, fabric}, {"fabric.payload_bytes", &m.FabricPayloadBytes, fabric},
			{"net.flows", &m.NetFlows, net}, {"net.bytes_moved", &m.NetBytesMoved, net},
		},
		gauges: [...]stat[float64]{{"job.completion_s", &m.CompletionS, m.CompletionS != 0}},
		hists: [...]stat[Hist]{
			{"pcl.blocked_time", &m.BlockedTime, on}, {"ckpt.store_time", &m.ImageStoreTime, on},
			{"restart.time", &m.RestartTime, on}, {"ckpt.drain_time", &m.DrainTime, on},
			{"wave.spread", &m.WaveSpread, on}, {"wave.transfer", &m.WaveTransfer, on},
			{"wave.cycle", &m.WaveCycle, on}, {"detect.latency", &m.DetectLatency, on},
			{"repair.latency", &m.RepairLatency, on}, {"mpi.recv_blocked", &m.RecvBlocked, m.RecvBlocked.Count != 0},
		},
		families: [...]stat[map[int]int64]{{"pcl.blocked_time.rank", &m.BlockedNs, true},
			{"ckpt.image_bytes.server", &m.ServerBytes, true}, {"ckpt.store_ns.server", &m.ServerStoreNs, true},
			{"ckpt.level_bytes.l", &m.LevelBytes, true}},
	}
}

// each calls counter, gauge and hist with every field m shows, by name.
func (m *Metrics) each(counter func(string, int64), gauge func(string, float64), hist func(string, *Hist)) {
	if m == nil {
		return
	}
	s := m.table()
	for _, c := range s.counters {
		if c.shown {
			counter(c.name, *c.v)
		}
	}
	for _, f := range s.families {
		for i, v := range *f.v {
			counter(f.name+strconv.Itoa(i), v)
		}
	}
	for ch, v := range m.ChannelBytes {
		counter("log.bytes.ch"+strconv.Itoa(int(ch[0]))+"-"+strconv.Itoa(int(ch[1])), v)
	}
	for _, g := range s.gauges {
		if g.shown {
			gauge(g.name, *g.v)
		}
	}
	for _, h := range s.hists {
		if h.shown {
			hist(h.name, h.v)
		}
	}
}

// find returns the cell of the field named name among those list picks,
// nil when m does not show it.
func find[T any](m *Metrics, name string, list func(*schema) []stat[T]) *T {
	if m != nil {
		s := m.table()
		for _, f := range list(&s) {
			if f.name == name && f.shown {
				return f.v
			}
		}
	}
	return nil
}

// Counter returns the named scalar counter (not a family member), 0 when
// m does not show it.
func (m *Metrics) Counter(name string) int64 {
	if v := find(m, name, func(s *schema) []stat[int64] { return s.counters[:] }); v != nil {
		return *v
	}
	return 0
}

// Gauge returns the named gauge, 0 when m does not show it.
func (m *Metrics) Gauge(name string) float64 {
	if v := find(m, name, func(s *schema) []stat[float64] { return s.gauges[:] }); v != nil {
		return *v
	}
	return 0
}

// Hist returns the named histogram, nil when m does not show it.
func (m *Metrics) Hist(name string) *Hist {
	return find(m, name, func(s *schema) []stat[Hist] { return s.hists[:] })
}

// Sample calls emit with the name and value of each counter the periodic
// metrics snapshot tracks, in its frozen order.
func (m *Metrics) Sample(emit func(name string, v int64)) {
	s := m.table()
	for _, c := range s.counters[:sampled] {
		emit(c.name, *c.v)
	}
}

// Merge folds every counter, gauge and histogram of other into m.
// Counters and histogram tallies combine exactly (sums add; histogram
// min/max and bucket counts merge, never recomputed from means); a gauge
// other shows takes its value, so merging per-run registries in run order
// matches the last-write-wins outcome of sequential runs sharing one
// registry.  Merge must only be called after the run owning other has
// completed (see the single-writer note on Metrics).  A nil m or other is
// a no-op.
func (m *Metrics) Merge(other *Metrics) {
	if m == nil || other == nil {
		return
	}
	dst, src := m.table(), other.table()
	for i, c := range src.counters {
		*dst.counters[i].v += *c.v
	}
	for i, f := range src.families {
		for k, v := range *f.v {
			(*dst.families[i].v)[k] += v
		}
	}
	for ch, v := range other.ChannelBytes {
		m.ChannelBytes[ch] += v
	}
	for i, g := range src.gauges {
		if g.shown {
			*dst.gauges[i].v = *g.v
		}
	}
	for i, h := range src.hists {
		dst.hists[i].v.merge(h.v)
	}
	m.full = m.full || other.full
}

// histJSON is the export shape of one histogram.
type histJSON struct {
	Count   int64      `json:"count"`
	SumNs   int64      `json:"sum_ns"`
	MinNs   int64      `json:"min_ns"`
	MaxNs   int64      `json:"max_ns"`
	MeanNs  int64      `json:"mean_ns"`
	Bounds  []sim.Time `json:"bounds_ns"`
	Buckets []int64    `json:"buckets"`
}

func (h *Hist) export() histJSON {
	return histJSON{h.Count, int64(h.Sum), int64(h.Min), int64(h.Max), int64(h.Mean()), HistBounds[:], h.Buckets[:]}
}

// WriteJSON dumps the registry as indented JSON with sorted keys
// (encoding/json sorts map keys, so the output is deterministic).
func (m *Metrics) WriteJSON(w io.Writer) error {
	if m == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	doc := struct {
		Counters   map[string]int64    `json:"counters"`
		Gauges     map[string]float64  `json:"gauges"`
		Histograms map[string]histJSON `json:"histograms"`
	}{map[string]int64{}, map[string]float64{}, map[string]histJSON{}}
	m.each(func(name string, v int64) { doc.Counters[name] = v },
		func(name string, v float64) { doc.Gauges[name] = v },
		func(name string, h *Hist) { doc.Histograms[name] = h.export() })
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
	m.each(func(name string, v int64) { rows = append(rows, fmt.Sprintf("counter,%s,value,%d", name, v)) },
		func(name string, v float64) { rows = append(rows, fmt.Sprintf("gauge,%s,value,%g", name, v)) },
		func(name string, h *Hist) {
			rows = append(rows,
				fmt.Sprintf("hist,%s,count,%d", name, h.Count),
				fmt.Sprintf("hist,%s,sum_ns,%d", name, int64(h.Sum)),
				fmt.Sprintf("hist,%s,min_ns,%d", name, int64(h.Min)),
				fmt.Sprintf("hist,%s,max_ns,%d", name, int64(h.Max)),
				fmt.Sprintf("hist,%s,mean_ns,%d", name, int64(h.Mean())),
			)
		})
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
