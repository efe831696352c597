package obs_test

import (
	"io"
	"testing"
	"time"

	"ftckpt"
	"ftckpt/internal/obs"
)

// The twin of bench's obs.chrome_ns_per_event probe: the event stream of
// the mid-size Pcl run with every sink on (BT class A, two processes per
// node, four servers; NP=256 every 2 s, or NP=16 every 8 s under -short),
// collected once and replayed through the streaming Chrome exporter.

func sinksOnStream(b *testing.B) []obs.Event {
	np, interval := 256, 2*time.Second
	if testing.Short() {
		np, interval = 16, 8*time.Second
	}
	col := ftckpt.NewCollector()
	if _, err := ftckpt.Run(ftckpt.Options{
		Workload: ftckpt.WorkloadBT, Class: ftckpt.ClassA, NP: np, ProcsPerNode: 2,
		Protocol: ftckpt.Pcl, Interval: interval, Servers: 4, Seed: 1, VclProcessLimit: -1,
		Attribution: true, Sink: col, MetricsSnapshot: time.Millisecond,
	}); err != nil {
		b.Fatal(err)
	}
	return col.Events()
}

// BenchmarkChromeStream: one op is the whole stream through
// NewChromeStreamSink(io.Discard) and Close, also reported per event.
func BenchmarkChromeStream(b *testing.B) {
	events := sinksOnStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := obs.NewChromeStreamSink(io.Discard)
		for _, ev := range events {
			cs.Emit(ev)
		}
		if err := cs.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}
