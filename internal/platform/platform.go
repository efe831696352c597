// Package platform provides Grid'5000-inspired platform presets and the
// service profiles of the paper's three communication stacks.  The
// numbers are fitted to the era's measured characteristics (Gigabit
// Ethernet TCP, Myrinet2000 with GM and with Ethernet emulation, Renater
// inter-cluster links) and are the single place ablation studies tweak.
package platform

import (
	"fmt"
	"time"

	"ftckpt/internal/mpi"
	"ftckpt/internal/simnet"
)

// Service profiles of the three stacks compared in the paper.
var (
	// PclSock is MPICH2's ft-sock channel: a thin TCP channel with small
	// per-call costs and an in-call progress engine.
	PclSock = mpi.Profile{
		Name:         "pcl-sock",
		SendOverhead: 2 * time.Microsecond,
		RecvOverhead: 2 * time.Microsecond,
		CopyBW:       800e6, // one user/kernel copy each way
		CkptSteal:    0.45,  // fork'd clone + pipelined send on a fully booked node
	}
	// PclNemesis is MPICH2's Nemesis channel over GM: minimal software
	// overhead (the network speed difference lives in the topology).
	PclNemesis = mpi.Profile{
		Name:         "pcl-nemesis-gm",
		SendOverhead: time.Microsecond,
		RecvOverhead: time.Microsecond,
		CopyBW:       2e9,  // GM does zero-copy transfers for large messages
		CkptSteal:    0.45, // the checkpoint pipeline is the same as ft-sock's
	}
	// Vcl is MPICH-V's ch_v device: every message crosses a separate
	// communication daemon through two Unix sockets — extra per-message
	// latency and copies, but markers are handled asynchronously even
	// while the application computes.
	Vcl = mpi.Profile{
		Name:          "vcl-daemon",
		SendOverhead:  4 * time.Microsecond,
		RecvOverhead:  4 * time.Microsecond,
		CopyBW:        800e6,
		DaemonLatency: 30 * time.Microsecond,
		DaemonCopyBW:  400e6, // two extra Unix-socket copies in the daemon
		CkptSteal:     0.15,  // the daemon owns the pipeline and paces itself
		ShipBW:        60e6,  // single-threaded daemon interleaves shipping with messages
		Async:         true,
	}
)

// Link characteristics.
const (
	gigEBW      = 112e6 // usable TCP throughput on Gigabit Ethernet
	gigELatency = 45 * time.Microsecond

	myriGMBW       = 230e6 // Myrinet2000 with native GM
	myriGMLatency  = 7 * time.Microsecond
	myriTCPBW      = 160e6 // Ethernet emulation over Myri2000 (MX)
	myriTCPLatency = 35 * time.Microsecond

	wanLatency = 4500 * time.Microsecond // two orders above intra-cluster
	// Effective per-site WAN capacity: the 1 Gb/s Renater access link is
	// shared with other traffic; sustained MPI throughput per site is a
	// fraction of line rate, and it is what congests the boundary
	// exchanges of large grid runs (the paper's 529-process slowdown).
	wanBW      = 30e6
	wanFlowCap = 6e6 // single-stream TCP on a high-RTT path (~20x slower)
)

// EthernetCluster is the Orsay-like Gigabit-Ethernet cluster (the paper's
// cluster testbed has 216 nodes; pass a larger count only for what-if
// studies).
func EthernetCluster(nodes int) simnet.Topology {
	return simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "orsay", Nodes: nodes, NICBW: gigEBW, Latency: gigELatency,
	}}}
}

// MyrinetGM is the Bordeaux Myrinet2000 cluster seen through native GM
// (the Nemesis channel).
func MyrinetGM(nodes int) simnet.Topology {
	return simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "bordeaux-gm", Nodes: nodes, NICBW: myriGMBW, Latency: myriGMLatency,
	}}}
}

// MyrinetTCP is the same cluster through the MX Ethernet emulation (the
// TCP stacks: Pcl/sock and Vcl).
func MyrinetTCP(nodes int) simnet.Topology {
	return simnet.Topology{Clusters: []simnet.ClusterSpec{{
		Name: "bordeaux-tcp", Nodes: nodes, NICBW: myriTCPBW, Latency: myriTCPLatency,
	}}}
}

// grid5000Clusters lists the six homogeneous Opteron-248 clusters the
// paper selects (§5.1).
var grid5000Clusters = []simnet.ClusterSpec{
	{Name: "bordeaux", Nodes: 48, NICBW: gigEBW, Latency: gigELatency},
	{Name: "lille", Nodes: 53, NICBW: gigEBW, Latency: gigELatency},
	{Name: "orsay", Nodes: 216, NICBW: gigEBW, Latency: gigELatency},
	{Name: "rennes", Nodes: 64, NICBW: gigEBW, Latency: gigELatency},
	{Name: "sophia", Nodes: 105, NICBW: gigEBW, Latency: gigELatency},
	{Name: "toulouse", Nodes: 58, NICBW: gigEBW, Latency: gigELatency},
}

// Grid5000 is the six-cluster grid topology.
func Grid5000() simnet.Topology {
	return simnet.Topology{
		Clusters:   grid5000Clusters,
		WanLatency: wanLatency,
		WanBW:      wanBW,
		WanFlowCap: wanFlowCap,
	}
}

// GridLayout is a placement over the grid: compute ranks fill clusters in
// order, skipping per-cluster reserved nodes that host the checkpoint
// servers, so every process stores its image on a server in its own
// cluster — the paper's "each node used a local machine as its checkpoint
// server".
type GridLayout struct {
	Topo        simnet.Topology
	Placement   func(rank int) int
	ServerNodes []int
	ServerOf    func(rank int) int
	ServiceNode int
	Servers     int
}

// Grid5000Layout reserves the last node of each cluster for its one
// checkpoint server (the next-to-last of the final cluster, whose last
// node hosts the scheduler/dispatcher) and places np ranks (ppn per node)
// on the remaining nodes.
func Grid5000Layout(np, ppn int) (GridLayout, error) {
	topo := Grid5000()
	if ppn <= 0 {
		ppn = 1
	}
	var (
		computeNodes  []int
		serverNodes   []int
		clusterOfNode = map[int]int{}
		base          int
	)
	for ci, c := range topo.Clusters {
		reserve := 1
		if ci == len(topo.Clusters)-1 {
			reserve++ // one extra reserved node hosts the scheduler/dispatcher
		}
		for i := 0; i < c.Nodes-reserve; i++ {
			computeNodes = append(computeNodes, base+i)
			clusterOfNode[base+i] = ci
		}
		serverNodes = append(serverNodes, base+c.Nodes-reserve)
		base += c.Nodes
	}
	needNodes := (np + ppn - 1) / ppn
	if needNodes > len(computeNodes) {
		return GridLayout{}, fmt.Errorf("platform: %d processes at %d per node need %d nodes, grid has %d compute nodes",
			np, ppn, needNodes, len(computeNodes))
	}
	placement := func(rank int) int { return computeNodes[rank/ppn] }
	serverOf := func(rank int) int { return clusterOfNode[placement(rank)] }
	return GridLayout{
		Topo:        topo,
		Placement:   placement,
		ServerNodes: serverNodes,
		ServerOf:    serverOf,
		ServiceNode: topo.TotalNodes() - 1,
		Servers:     len(serverNodes),
	}, nil
}
