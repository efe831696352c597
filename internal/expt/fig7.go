package expt

import (
	"fmt"
	"time"

	"ftckpt/internal/ftpm"
	"ftckpt/internal/mpi"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// Fig7Row is one run of Fig. 7: CG class C on 64 processes over a 32-node
// Myrinet cluster with 2 checkpoint servers; completion time as a
// function of the number of completed checkpoint waves, for the three
// stacks.
type Fig7Row struct {
	Stack    string
	Interval sim.Time
	Waves    int
	Time     sim.Time
}

// fig7Stacks are the three implementations compared on the high-speed
// network: both TCP stacks run over the Myrinet Ethernet emulation, the
// Nemesis stack over native GM.
var fig7Stacks = []struct {
	name  string
	proto ftpm.Proto
	topo  func(nodes int) simnet.Topology
	prof  mpi.Profile
}{
	{"pcl-sock", ftpm.ProtoPcl, platform.MyrinetTCP, platform.PclSock},
	{"vcl", ftpm.ProtoVcl, platform.MyrinetTCP, platform.Vcl},
	{"pcl-nemesis", ftpm.ProtoPcl, platform.MyrinetGM, platform.PclNemesis},
}

// fig7Intervals sweeps the timeout between waves; the x-axis of the
// figure is the number of waves actually completed.
func fig7Intervals(o Options) []sim.Time {
	ivs := []sim.Time{0, 60 * time.Second, 30 * time.Second, 15 * time.Second,
		8 * time.Second, 5 * time.Second, 3 * time.Second, 2 * time.Second}
	if o.Quick {
		ivs = []sim.Time{0, 15 * time.Second, 3 * time.Second}
	}
	return ivs
}

// Fig7 reproduces "Impact of the number of checkpoint waves over a high
// speed network".  Expected shape: both Pcl stacks degrade linearly in
// the number of waves; Vcl is nearly flat in the wave count but starts
// from a much higher base (daemon copies and TCP emulation on a
// latency-bound benchmark), so Vcl only wins at extreme checkpoint
// frequencies.
func Fig7(o Options) ([]Fig7Row, error) {
	const np = 64
	class := o.cgClass()
	var rows []Fig7Row
	var points []point
	for _, st := range fig7Stacks {
		for _, iv := range fig7Intervals(o) {
			cfg := ftpm.Config{
				NP:           np,
				ProcsPerNode: 2,
				Servers:      2,
				Topology:     st.topo(np/2 + 2 + 1),
				Profile:      st.prof,
				NewProgram:   newCG(class),
				Seed:         o.Seed,
			}
			rows = append(rows, Fig7Row{Stack: st.name, Interval: iv})
			points = append(points, point{fmt.Sprintf("fig7 %s np=%d interval=%v", st.name, np, iv),
				[]ftpm.Config{every(cfg, st.proto, o.scaleInterval(iv))}})
		}
	}
	return reduce(o, points, rows, func(row *Fig7Row, r []ftpm.Result) {
		row.Waves, row.Time = r[0].WavesCommitted, r[0].Completion
	})
}

// Fig8Row is one run of Fig. 8: CG class C at varying process counts on
// the Myrinet cluster, Pcl/Nemesis only.
type Fig8Row struct {
	NP       int
	PPN      int
	Interval sim.Time
	Waves    int
	Time     sim.Time
}

// Fig8 reproduces "Impact of the size of the system for varying number of
// checkpoint waves over high speed network".  Expected shape: completion
// time grows linearly with the wave count at every size with roughly the
// same slope — the checkpoint frequency matters, the process count does
// not; 32 and 64 processes perform alike because two processes share each
// NIC.  The interval sweep is fig7's (the figures share an x-axis).
func Fig8(o Options) ([]Fig8Row, error) {
	class := o.cgClass()
	sizes := []int{4, 8, 16, 32, 64}
	if o.Quick {
		sizes = []int{4, 16, 64}
	}
	var rows []Fig8Row
	var points []point
	for _, np := range sizes {
		ppn := 1
		if np >= 32 {
			ppn = 2 // dual-processor deployments share the NIC
		}
		for _, iv := range fig7Intervals(o) {
			cfg := ftpm.Config{
				NP:           np,
				ProcsPerNode: ppn,
				Servers:      2,
				Topology:     platform.MyrinetGM((np+ppn-1)/ppn + 3),
				Profile:      platform.PclNemesis,
				NewProgram:   newCG(class),
				Seed:         o.Seed,
			}
			rows = append(rows, Fig8Row{NP: np, PPN: ppn, Interval: iv})
			points = append(points, point{fmt.Sprintf("fig8 np=%d interval=%v", np, iv),
				[]ftpm.Config{every(cfg, ftpm.ProtoPcl, o.scaleInterval(iv))}})
		}
	}
	return reduce(o, points, rows, func(row *Fig8Row, r []ftpm.Result) {
		row.Waves, row.Time = r[0].WavesCommitted, r[0].Completion
	})
}
