package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// TestSinkFamiliesAllocFree: a per-index family member (".ch<s>-<d>",
// ".rank<r>", ".server<s>", ".l<k>") is a map cell keyed by its index,
// so folding an event allocates nothing once the cell exists — a logged
// message is an event — and the exporter names it as exports always have.
func TestSinkFamiliesAllocFree(t *testing.T) {
	m := NewMetrics()
	s := NewMetricsSink(m)
	events := []Event{
		{Type: EvMessageLogged, Rank: 3, Channel: 7, Bytes: 10},
		{Type: EvChannelBlocked, Rank: 3, T: 1},
		{Type: EvChannelUnblocked, Rank: 3, T: 5},
		{Type: EvImageStoreBegin, Rank: 3, Wave: 1, Server: 2, T: 5},
		{Type: EvImageStoreEnd, Rank: 3, Wave: 1, Server: 2, Bytes: 10, T: 9},
		{Type: EvImageStoreEnd, Rank: 3, Wave: 1, Server: -1, Level: 0, Bytes: 10},
		{Type: EvDrainEnd, Rank: 3, Wave: 1, Level: 1, Bytes: 10},
	}
	round := func() {
		for _, ev := range events {
			s.Emit(ev)
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("%v allocations per round once every name has been used", n)
	}
	var out bytes.Buffer
	if err := m.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct{ Counters map[string]int64 }
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"log.bytes.ch7-3":          10 * 102,
		"pcl.blocked_time.rank3":   4 * 102,
		"ckpt.image_bytes.server2": 10 * 102,
		"ckpt.store_ns.server2":    4 * 102,
		"ckpt.level_bytes.l0":      10 * 102,
		"ckpt.level_bytes.l1":      10 * 102,
	} {
		if got := doc.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestSampleAllocFree: the periodic snapshot reads the ledger on every
// tick, so a Sample allocates nothing, and it walks the frozen order.
func TestSampleAllocFree(t *testing.T) {
	m := NewMetrics()
	m.LoggedBytes = 7
	var names []string
	m.Sample(func(name string, v int64) { names = append(names, name+"="+strconv.FormatInt(v, 10)) })
	want := "markers.sent=0 pcl.delayed_sends=0 log.msgs=0 log.bytes=7 ckpt.local=0 ckpt.image_bytes=0 waves.committed=0 failures=0 log.replayed=0"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("sampled %s, want %s", got, want)
	}
	var sum int64
	if n := testing.AllocsPerRun(100, func() { m.Sample(func(_ string, v int64) { sum += v }) }); n != 0 {
		t.Errorf("%v allocations per Sample", n)
	}
}
