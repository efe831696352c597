//go:build !race

// The grid example runs three BT.B jobs of 256 processes, about 3 s on a
// two-core host; the race detector would multiply that, so it is built
// without it.

package ftckpt_test

import (
	"fmt"
	"log"
	"time"

	"ftckpt"
)

// Run the paper's grid stress test, the NAS BT model spread over the
// six-cluster Grid'5000 topology, and compare no checkpointing, blocking
// (Pcl) and non-blocking (Vcl) coordinated checkpointing at the same wave
// interval.
//
// Each process stores its image on a checkpoint server inside its own
// cluster (the paper's machinefile mapping); inter-cluster links have two
// orders of magnitude more latency and ~20x less per-stream bandwidth
// than intra-cluster ones.
func ExampleRun_grid() {
	const np = 256 // 16x16 BT process grid, two processes per node
	base := ftckpt.Options{
		Workload:     ftckpt.WorkloadBT,
		Class:        ftckpt.ClassB,
		NP:           np,
		ProcsPerNode: 2,
		Platform:     ftckpt.PlatformGrid,
		Seed:         7,
	}

	fmt.Printf("BT class B, %d processes over the six-cluster grid\n\n", np)
	fmt.Printf("%-8s %12s %8s %14s\n", "protocol", "completion", "waves", "ckpt data (MB)")
	for _, proto := range []ftckpt.Protocol{ftckpt.ProtocolNone, ftckpt.Pcl, ftckpt.Vcl} {
		o := base
		if proto != ftckpt.ProtocolNone {
			o.Protocol = proto
			o.Interval = 6 * time.Second
		}
		rep, err := ftckpt.Run(o)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %12v %8d %14.1f\n", proto, rep.Completion, rep.Waves, rep.CheckpointMB)
	}
	fmt.Println("\nNote: Vcl runs here because 256 < the ~300-process select() limit of")
	fmt.Println("its dispatcher; at the paper's 400..529-process scales only Pcl runs.")
	// Output:
	// BT class B, 256 processes over the six-cluster grid
	//
	// protocol   completion    waves ckpt data (MB)
	// none     36.221190314s        0            0.0
	// pcl      39.832400651s        4         4052.1
	// vcl      37.473567549s        3         3042.8
	//
	// Note: Vcl runs here because 256 < the ~300-process select() limit of
	// its dispatcher; at the paper's 400..529-process scales only Pcl runs.
}
