package ftckpt

import "testing"

// TestHeapHighWaterBounded pins what the head-of-line lanes buy: the event
// heap stays O(NP) deep through a checkpoint wave.  BT.A at NP=256, ppn 2,
// measures 1 022 entries under Pcl (whose wave floods NP² markers) and
// 1 867 under Vcl (whose daemons delay every packet); with one heap entry
// per pending small message or daemon admit the same runs reach 29 179 and
// 122 623.
func TestHeapHighWaterBounded(t *testing.T) {
	const np = 256
	for _, proto := range []string{"pcl", "vcl"} {
		t.Run(proto, func(t *testing.T) {
			_, st, err := RunKernelStats(benchRunOpts(proto, np))
			if err != nil {
				t.Fatal(err)
			}
			if st.HeapMax > 8*np {
				t.Errorf("heap high-water %d entries, want <= 8*NP = %d (stats %+v)", st.HeapMax, 8*np, st)
			}
			if st.LaneMax == 0 {
				t.Errorf("no event went through a lane (stats %+v)", st)
			}
			if st.Scheduled < st.Fired+st.Cancelled {
				t.Errorf("fired %d + cancelled %d events exceed the %d scheduled", st.Fired, st.Cancelled, st.Scheduled)
			}
		})
	}
}

// TestShardsOptionIgnored pins the deprecated Options.Shards as a no-op:
// any value gives the same Report and the same kernel counters.
func TestShardsOptionIgnored(t *testing.T) {
	o := storageGolden()
	run := func(n int) (Report, KernelStats) {
		o.Shards = n
		rep, st, err := RunKernelStats(o)
		if err != nil {
			t.Fatalf("%d: %v", n, err)
		}
		rep.Metrics = nil
		return rep, st
	}
	rep0, st0 := run(0)
	for _, n := range []int{2, 7} {
		if rep, st := run(n); rep != rep0 || st != st0 {
			t.Errorf("%d changed the run:\n  got  %+v %+v\n  want %+v %+v", n, rep, st, rep0, st0)
		}
	}
}
