package obs

import "testing"

// TestIndexedNamesInterned: an indexed counter name (".ch<s>-<d>",
// ".rank<r>", ".server<s>", ".l<k>") is formatted on its first use and
// looked up afterwards — a logged message is an event, so a Sprintf per
// Emit was an allocation per message — and the names are the ones the
// export has always carried.
func TestIndexedNamesInterned(t *testing.T) {
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
	for name, want := range map[string]int64{
		"log.bytes.ch7-3":          10 * 102,
		"pcl.blocked_time.rank3":   4 * 102,
		"ckpt.image_bytes.server2": 10 * 102,
		"ckpt.store_ns.server2":    4 * 102,
		"ckpt.level_bytes.l0":      10 * 102,
		"ckpt.level_bytes.l1":      10 * 102,
	} {
		if got := m.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
