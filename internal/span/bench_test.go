package span_test

import (
	"testing"
	"time"

	"ftckpt"
	"ftckpt/internal/obs"
	"ftckpt/internal/span"
)

// The twin of bench's span.build_ns_per_event probe: the event stream of
// the mid-size Pcl run with every sink on (BT class A, two processes per
// node, four servers; NP=256 every 2 s, or NP=16 every 8 s under -short),
// collected once and replayed through the span builder.

func sinksOnStream(b *testing.B) (events []obs.Event, np int, completion time.Duration) {
	np, interval := 256, 2*time.Second
	if testing.Short() {
		np, interval = 16, 8*time.Second
	}
	col := ftckpt.NewCollector()
	rep, err := ftckpt.Run(ftckpt.Options{
		Workload: ftckpt.WorkloadBT, Class: ftckpt.ClassA, NP: np, ProcsPerNode: 2,
		Protocol: ftckpt.Pcl, Interval: interval, Servers: 4, Seed: 1, VclProcessLimit: -1,
		Attribution: true, Sink: col, MetricsSnapshot: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	return col.Events(), np, rep.Completion
}

// BenchmarkSpanBuild: one op is the whole stream through NewBuilder and
// Finalize, also reported per event.
func BenchmarkSpanBuild(b *testing.B) {
	events, np, completion := sinksOnStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb := span.NewBuilder(np, string(ftckpt.Pcl))
		for _, ev := range events {
			sb.Emit(ev)
		}
		sb.Finalize(completion)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}
