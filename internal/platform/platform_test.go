package platform

import (
	"testing"
)

func TestGrid5000Shape(t *testing.T) {
	topo := Grid5000()
	if len(topo.Clusters) != 6 {
		t.Fatalf("%d clusters", len(topo.Clusters))
	}
	if topo.TotalNodes() != 48+53+216+64+105+58 {
		t.Fatalf("total nodes %d", topo.TotalNodes())
	}
	if topo.WanLatency <= topo.Clusters[0].Latency*50 {
		t.Fatal("WAN latency not orders of magnitude above LAN")
	}
}

func TestGrid5000LayoutLocality(t *testing.T) {
	lay, err := Grid5000Layout(400, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Servers != 6 {
		t.Fatalf("%d servers", lay.Servers)
	}
	topo := lay.Topo
	// Cluster of a node.
	clusterOf := func(node int) int {
		base := 0
		for ci, c := range topo.Clusters {
			if node < base+c.Nodes {
				return ci
			}
			base += c.Nodes
		}
		t.Fatalf("node %d out of range", node)
		return -1
	}
	seen := map[int]bool{}
	for rank := 0; rank < 400; rank++ {
		node := lay.Placement(rank)
		srv := lay.ServerOf(rank)
		if srv < 0 || srv >= lay.Servers {
			t.Fatalf("rank %d server %d", rank, srv)
		}
		// Locality: the checkpoint server lives in the rank's cluster.
		if clusterOf(lay.ServerNodes[srv]) != clusterOf(node) {
			t.Fatalf("rank %d on cluster %d stores on cluster %d",
				rank, clusterOf(node), clusterOf(lay.ServerNodes[srv]))
		}
		seen[node] = true
		// Compute nodes never collide with server or service nodes.
		for _, sn := range lay.ServerNodes {
			if node == sn {
				t.Fatalf("rank %d placed on server node %d", rank, node)
			}
		}
		if node == lay.ServiceNode {
			t.Fatalf("rank %d placed on the service node", rank)
		}
	}
	if len(seen) != 200 {
		t.Fatalf("%d nodes used for 400 ranks at ppn=2", len(seen))
	}
}

func TestGrid5000LayoutCapacity(t *testing.T) {
	if _, err := Grid5000Layout(2000, 1); err == nil {
		t.Fatal("oversized layout accepted")
	}
	if _, err := Grid5000Layout(529, 2); err != nil {
		t.Fatalf("paper-scale layout rejected: %v", err)
	}
}

func TestProfilesDistinct(t *testing.T) {
	if !Vcl.Async {
		t.Fatal("Vcl daemon must be asynchronous")
	}
	if PclSock.Async || PclNemesis.Async {
		t.Fatal("MPICH2 stacks progress in-call")
	}
	if Vcl.DaemonLatency == 0 {
		t.Fatal("Vcl daemon has no store-and-forward cost")
	}
	if PclNemesis.SendOverhead >= PclSock.SendOverhead {
		t.Fatal("Nemesis should be the thinnest stack")
	}
}

func TestClusterPresets(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{{"eth", 10}, {"gm", 20}, {"tcp", 30}} {
		var nodes int
		switch tc.name {
		case "eth":
			nodes = EthernetCluster(tc.n).TotalNodes()
		case "gm":
			nodes = MyrinetGM(tc.n).TotalNodes()
		case "tcp":
			nodes = MyrinetTCP(tc.n).TotalNodes()
		}
		if nodes != tc.n {
			t.Fatalf("%s: %d nodes, want %d", tc.name, nodes, tc.n)
		}
	}
	gm, tcp := MyrinetGM(4), MyrinetTCP(4)
	if gm.Clusters[0].Latency >= tcp.Clusters[0].Latency {
		t.Fatal("GM must have lower latency than the Ethernet emulation")
	}
	if gm.Clusters[0].NICBW <= tcp.Clusters[0].NICBW {
		t.Fatal("GM must have higher bandwidth than the Ethernet emulation")
	}
}
