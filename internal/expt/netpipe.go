package expt

import (
	"fmt"

	"ftckpt/internal/mpi"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// NetpipeRow characterizes one message size: half round-trip time and
// stream throughput for an intra-cluster and an inter-cluster node pair
// of the grid.
type NetpipeRow struct {
	Size     int64
	IntraRTT sim.Time // half round trip
	InterRTT sim.Time
	IntraBW  float64 // MB/s
	InterBW  float64
}

// NetpipeSizes is the sweep of the characterization.
var NetpipeSizes = []int64{1, 1 << 10, 32 << 10, 1 << 20, 8 << 20}

// Netpipe reproduces the §5.4 platform measurement: "the network is up to
// 20 times faster between two nodes of the same cluster than between two
// nodes of two distinct clusters; the latency is up to two orders of
// magnitude greater between clusters".
// Its ping-pongs run on bare engines, not as jobs, one after another.
func Netpipe(o Options) ([]NetpipeRow, error) {
	rows := make([]NetpipeRow, len(NetpipeSizes))
	for i, size := range NetpipeSizes {
		intra, err := pingpong(o, size, 0, 1) // two Bordeaux nodes
		if err != nil {
			return nil, err
		}
		inter, err := pingpong(o, size, 0, 60) // Bordeaux ↔ Lille
		if err != nil {
			return nil, err
		}
		rows[i] = NetpipeRow{Size: size, IntraRTT: intra / 2, InterRTT: inter / 2,
			IntraBW: bwMBs(size, intra), InterBW: bwMBs(size, inter)}
	}
	return rows, nil
}

func bwMBs(size int64, rtt sim.Time) float64 {
	if rtt <= 0 {
		return 0
	}
	return 2 * float64(size) / rtt.Seconds() / 1e6
}

// pingpong measures the mean round trip of `reps` exchanges of size bytes
// between two nodes of the grid topology.
func pingpong(o Options, size int64, nodeA, nodeB int) (sim.Time, error) {
	const reps = 5
	k := sim.New(o.Seed)
	net := simnet.New(k, platform.Grid5000())
	fab := mpi.NewFabric(net)
	fab.Place(0, nodeA)
	fab.Place(1, nodeB)
	var rtt sim.Time
	for r := 0; r < 2; r++ {
		k.Go(fmt.Sprintf("pp%d", r), func(p *sim.Proc) {
			e := mpi.NewEngine(r, 2, p, platform.PclSock, fab)
			p.Yield() // both engines exist before the first send
			if r == 0 {
				start := e.Now()
				for i := 0; i < reps; i++ {
					e.Send(1, 1, nil, size)
					e.Recv(1, 2)
				}
				rtt = (e.Now() - start) / reps
			} else {
				for i := 0; i < reps; i++ {
					e.Recv(0, 1)
					e.Send(0, 2, nil, size)
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		return 0, err
	}
	return rtt, nil
}
