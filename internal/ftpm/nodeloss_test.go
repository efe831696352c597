package ftpm

import (
	"testing"
	"time"

	"ftckpt/internal/failure"
)

func nodeLossCfg(np int) Config {
	cfg := baseCfg(np)
	cfg.ProcsPerNode = 2
	cfg.Spares = 2
	cfg.Topology = topoN(np/2 + 2 + 1 + 2 + 2) // compute + servers + service + spares + slack
	return cfg
}

// TestNodeLossRemapsToSpare: losing a machine kills both of its processes
// and the restart places them on a spare node; the result is unchanged.
func TestNodeLossRemapsToSpare(t *testing.T) {
	want := reference(t, 8)
	cfg := nodeLossCfg(8)
	cfg.Protocol = ProtoPcl
	cfg.Interval = 15 * time.Millisecond
	cfg.Failures = failure.Plan{{At: 60 * time.Millisecond, Kind: failure.KindNode, Node: 1}} // node 1 hosts ranks 2,3
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	if job.nodeMap[2] == 1 || job.nodeMap[3] == 1 {
		t.Fatalf("victims not remapped: %v", job.nodeMap)
	}
	if job.nodeMap[2] != job.nodeMap[3] {
		t.Fatalf("co-located ranks split: %v", job.nodeMap)
	}
	if !job.deadNodes[1] {
		t.Fatal("lost node not recorded")
	}
	if len(job.spares) != 1 {
		t.Fatalf("spares remaining %d, want 1", len(job.spares))
	}
	for _, s := range sums(job.Programs()) {
		if s != want {
			t.Fatalf("checksum %v, want %v", s, want)
		}
	}
}

// TestNodeLossOverbooking: with no spares left, victims double up on a
// surviving compute node.
func TestNodeLossOverbooking(t *testing.T) {
	want := reference(t, 8)
	cfg := nodeLossCfg(8)
	cfg.Spares = 0
	cfg.Protocol = ProtoPcl
	cfg.Interval = 15 * time.Millisecond
	cfg.Failures = failure.Plan{
		{At: 50 * time.Millisecond, Kind: failure.KindNode, Node: 2},  // ranks 4,5
		{At: 120 * time.Millisecond, Kind: failure.KindNode, Node: 3}, // ranks 6,7
	}
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 2 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	// Ranks 4,5 and 6,7 landed on surviving node 0 alongside ranks 0,1.
	if job.nodeMap[4] != 0 || job.nodeMap[6] != 0 {
		t.Fatalf("overbooking map %v", job.nodeMap)
	}
	for _, s := range sums(job.Programs()) {
		if s != want {
			t.Fatalf("checksum %v, want %v", s, want)
		}
	}
}

// TestNodeLossLocalRecovery: under message logging, losing a node rolls
// back exactly its two processes, nobody else.
func TestNodeLossLocalRecovery(t *testing.T) {
	want := reference(t, 8)
	cfg := nodeLossCfg(8)
	cfg.Protocol = ProtoMlog
	cfg.Interval = 25 * time.Millisecond
	cfg.Failures = failure.Plan{{At: 80 * time.Millisecond, Kind: failure.KindNode, Node: 2}} // node 2: ranks 4,5
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 2 { // both victims of the node, and only them
		t.Fatalf("restarts = %d", res.Restarts)
	}
	if job.nodeMap[4] == 2 || job.nodeMap[5] == 2 {
		t.Fatalf("victims not remapped: %v", job.nodeMap)
	}
	for _, s := range sums(job.Programs()) {
		if s != want {
			t.Fatalf("checksum %v, want %v", s, want)
		}
	}
}

// TestOverbookingSlowsCompute: two extra processes sharing an overbooked
// node contend for its NIC; the job still completes correctly.
func TestOverbookingSpareExhaustion(t *testing.T) {
	cfg := nodeLossCfg(8)
	cfg.Spares = 1
	cfg.Protocol = ProtoPcl
	cfg.Interval = 15 * time.Millisecond
	cfg.Failures = failure.Plan{
		{At: 40 * time.Millisecond, Kind: failure.KindNode, Node: 0},  // ranks 0,1
		{At: 110 * time.Millisecond, Kind: failure.KindNode, Node: 1}, // ranks 2,3
	}
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if len(job.spares) != 0 {
		t.Fatalf("spares %v", job.spares)
	}
}
