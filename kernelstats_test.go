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
