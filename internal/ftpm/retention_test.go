package ftpm

import (
	"testing"
	"time"

	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
	"ftckpt/internal/obs"
	"ftckpt/internal/platform"
)

// retentionProbe reads the per-rank cancellation lists from inside a run
// (a Sink is called synchronously, on the simulation's one thread).
type retentionProbe struct {
	job *Job

	records         int // log records shipped
	maxStores       int // longest procRun.stores seen
	maxUnsettled    int // most unsettled ops seen in one list
	settledAtCommit int // settled ops found in a list at its rank's commit
	commits         int
}

func (p *retentionProbe) Emit(ev obs.Event) {
	if ev.Rank < 0 || p.job.procs[ev.Rank] == nil {
		return
	}
	pr := p.job.procs[ev.Rank]
	unsettled := 0
	for _, op := range pr.stores {
		if !op.Settled() {
			unsettled++
		}
	}
	switch ev.Type {
	case obs.EvLogShipBegin:
		// Emitted while the store starts, before the host tracks it.
		p.records++
		p.maxStores = max(p.maxStores, len(pr.stores)+1)
		p.maxUnsettled = max(p.maxUnsettled, unsettled+1)
	case obs.EvWaveCommit:
		p.commits++
		p.settledAtCommit += len(pr.stores) - unsettled
	}
}

// TestSettledStoreOpsReleased: a host tracks a store only while it has
// something to cancel.  Under message logging every received message is a
// store, so a list that kept them all (as procRun.flows did) is the run's
// reception history — with every packet — held until teardown.
func TestSettledStoreOpsReleased(t *testing.T) {
	const np = 16
	probe := &retentionProbe{}
	cfg := Config{
		NP:           np,
		ProcsPerNode: 2,
		Topology:     platform.EthernetCluster(np/2 + 4 + 1),
		Profile:      platform.PclSock,
		NewProgram:   func(rank, size int) mpi.Program { return nas.NewBTModel(nas.BTClassA, rank, size) },
		Protocol:     ProtoMlog,
		Interval:     2 * time.Second,
		Servers:      4,
		Seed:         1,
		Sink:         probe,
	}
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe.job = job
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if probe.records < 10_000 || probe.commits < np {
		t.Fatalf("%d log records and %d commits: the run is too small to show retention (%+v)", probe.records, probe.commits, res)
	}
	if limit := 4*probe.maxUnsettled + 4; probe.maxStores > limit {
		t.Errorf("a rank tracked %d stores with at most %d unsettled at once (limit %d): settled ops are retained (%d log records in the run)",
			probe.maxStores, probe.maxUnsettled, limit, probe.records)
	}
	if probe.settledAtCommit != 0 {
		t.Errorf("%d settled stores still tracked at their rank's commit", probe.settledAtCommit)
	}
}
