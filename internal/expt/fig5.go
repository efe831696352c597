package expt

import (
	"fmt"
	"time"

	"ftckpt/internal/ftpm"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
)

// Fig5Row is one checkpoint-server count of Fig. 5: BT class B on 64
// processes (32 dual-processor Ethernet nodes), 30 s between checkpoint
// waves; completion time and completed waves for both implementations.
type Fig5Row struct {
	Servers  int
	PclTime  sim.Time
	PclWaves int
	VclTime  sim.Time
	VclWaves int
}

// Fig5 reproduces "Impact of the number of checkpoint servers on BT class
// B for 64 processes with a given period of time between checkpoints".
// Expected shape: Pcl's completion time decreases as servers are added
// (the image transfer competes with the resumed communication for
// bandwidth), while Vcl's stays nearly constant and converts the faster
// transfers into additional waves.
func Fig5(o Options) ([]Fig5Row, error) {
	const np = 64
	class := o.btClass()
	if o.Quick {
		// Keep images big enough that server count still governs the
		// transfer time (the effect under study).
		class.BytesPerCell = 333
	}
	interval := o.scaleInterval(30 * time.Second)
	var rows []Fig5Row
	var points []point
	for _, s := range []int{1, 2, 4, 8} {
		pcl := ftpm.Config{
			NP:           np,
			ProcsPerNode: 2,
			Protocol:     ftpm.ProtoPcl,
			Interval:     interval,
			Servers:      s,
			Topology:     platform.EthernetCluster(np/2 + s + 1),
			Profile:      platform.PclSock,
			NewProgram:   newBT(class),
			Seed:         o.Seed,
		}
		vcl := pcl
		vcl.Protocol, vcl.Profile = ftpm.ProtoVcl, platform.Vcl
		rows = append(rows, Fig5Row{Servers: s})
		points = append(points, point{fmt.Sprintf("fig5 servers=%d", s), []ftpm.Config{pcl, vcl}})
	}
	return reduce(o, points, rows, func(row *Fig5Row, r []ftpm.Result) {
		row.PclTime, row.PclWaves = r[0].Completion, r[0].WavesCommitted
		row.VclTime, row.VclWaves = r[1].Completion, r[1].WavesCommitted
	})
}

// Fig6Row is one (interval, process-count) point of Fig. 6: BT class B
// completion time for a checkpoint-free run and for both protocols, with
// 9 checkpoint servers.
type Fig6Row struct {
	Interval sim.Time
	NP       int
	PPN      int
	None     sim.Time
	Pcl      sim.Time
	PclWaves int
	Vcl      sim.Time
	VclWaves int
}

// Fig6Intervals are the four checkpoint frequencies of the figure.
var Fig6Intervals = []sim.Time{10 * time.Second, 30 * time.Second, 60 * time.Second, 120 * time.Second}

// fig6Sizes returns the square process counts of the figure; the paper
// had 150 machines, so deployments beyond 144 processes use both
// processors of a node (shared NIC — the visible performance dip).
func fig6Sizes(quick bool) []int {
	if quick {
		return []int{4, 16, 64}
	}
	return []int{4, 9, 16, 25, 36, 49, 64, 81, 100, 121, 144, 169, 196, 225, 256}
}

// Fig6PPN reproduces the paper's deployment rule for a process count.
func Fig6PPN(np int) int {
	if np > 144 {
		return 2
	}
	return 1
}

// Fig6 reproduces "Execution time as function of the number of processes
// for four checkpoint frequencies".  Expected shape: at 10 s between
// checkpoints the blocking protocol degrades badly; at lower frequencies
// both protocols converge to a constant overhead; the process count
// itself has no measurable impact on checkpoint overhead.
func Fig6(o Options) ([]Fig6Row, error) {
	const servers = 9
	class := o.btClass()
	intervals := Fig6Intervals
	if o.Quick {
		intervals = []sim.Time{10 * time.Second, 60 * time.Second}
	}
	var rows []Fig6Row
	var points []point
	for _, iv := range intervals {
		for _, np := range fig6Sizes(o.Quick) {
			ppn := Fig6PPN(np)
			none := ftpm.Config{
				NP:           np,
				ProcsPerNode: ppn,
				Servers:      servers,
				Topology:     platform.EthernetCluster((np+ppn-1)/ppn + servers + 1),
				Profile:      platform.PclSock,
				NewProgram:   newBT(class),
				Seed:         o.Seed,
			}
			pcl := every(none, ftpm.ProtoPcl, o.scaleInterval(iv))
			vcl := every(none, ftpm.ProtoVcl, o.scaleInterval(iv))
			vcl.Profile = platform.Vcl
			rows = append(rows, Fig6Row{Interval: iv, NP: np, PPN: ppn})
			points = append(points, point{fmt.Sprintf("fig6 interval=%v np=%d", iv, np), []ftpm.Config{none, pcl, vcl}})
		}
	}
	return reduce(o, points, rows, func(row *Fig6Row, r []ftpm.Result) {
		row.None = r[0].Completion
		row.Pcl, row.PclWaves = r[1].Completion, r[1].WavesCommitted
		row.Vcl, row.VclWaves = r[2].Completion, r[2].WavesCommitted
	})
}
