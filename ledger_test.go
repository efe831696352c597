package ftckpt

// One ledger per run: a Report is read off the run's own metrics, which
// are folded from the event stream.  These tests pin that from outside —
// an independent fold of the events, a registry shared across runs, a run
// that fails — and pin that a run's output does not depend on what the
// process did before it.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// foldMismatch re-counts every count and byte field of rep from the
// events a Collector saw during the same run.  runScenario calls it, so
// every plain row of the scenario table — the pinned rows among them —
// checks its Report against this independent fold.  (Messages and
// PayloadMB count packets, which are not events; the fabric counts them
// into the same registry and TestGoldenPinned pins them.)
func foldMismatch(rep Report, events []Event) error {
	n := map[EventType]int{}
	var logged, stored int64
	for _, ev := range events {
		n[ev.Type]++
		switch {
		case ev.Type == EvMessageLogged:
			logged += ev.Bytes
		case ev.Type == EvLogShipEnd, ev.Type == EvImageStoreEnd && ev.Server >= 0:
			stored += ev.Bytes // what reached a checkpoint server, not a node-local buffer
		}
	}
	got := Report{
		Waves: n[EvWaveCommit], LocalCheckpoints: n[EvLocalCkptEnd], Restarts: n[EvRankKilled],
		Repairs: n[EvRepairEnd], ServerFailures: n[EvServerKilled], Failovers: n[EvReplicaFailover],
		LoggedMessages: n[EvMessageLogged], LoggedMB: float64(logged) / (1 << 20),
		CheckpointMB: float64(stored) / (1 << 20),
	}
	want := Report{
		Waves: rep.Waves, LocalCheckpoints: rep.LocalCheckpoints, Restarts: rep.Restarts,
		Repairs: rep.Repairs, ServerFailures: rep.ServerFailures, Failovers: rep.Failovers,
		LoggedMessages: rep.LoggedMessages, LoggedMB: rep.LoggedMB, CheckpointMB: rep.CheckpointMB,
	}
	if got != want {
		return fmt.Errorf("the events fold to\n  %+v\nthe Report says\n  %+v", got, want)
	}
	if n[EvImageDurable] < rep.Waves {
		return fmt.Errorf("%d waves committed on %d durable images", rep.Waves, n[EvImageDurable])
	}
	return nil
}

// sharedRegistrySHA is the metrics export of the two runs below sharing
// one Options.Metrics, recorded at the commit before a job's registry
// became its own (when both runs wrote into the shared one directly), and
// re-recorded when the two always-zero buffer-eviction counters left
// every export, and again when images took the flat state codec (the
// stream first differs at its first image-store-begin's Bytes).
const sharedRegistrySHA = "11bb32185275edb7a931f19bb136da3207313ac7c956e17347916542296ebd2c"

// TestSharedRegistry: two sequential runs sharing one Options.Metrics each
// report their own totals, and the shared registry ends up byte-identical
// to the one they used to write into directly.
func TestSharedRegistry(t *testing.T) {
	o := Options{Workload: WorkloadCGReal, NP: 8, ProcsPerNode: 2, Protocol: Vcl,
		Interval: 5 * time.Millisecond, Servers: 2, Seed: 3,
		Failures: []Failure{KillRank(12*time.Millisecond, 5)}}
	alone, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Metrics = NewMetrics()
	var reps [2]Report
	for i := range reps {
		if reps[i], err = Run(o); err != nil {
			t.Fatal(err)
		}
		if reps[i].Metrics != o.Metrics {
			t.Fatal("Report.Metrics is not the caller's registry")
		}
		reps[i].Metrics = nil
	}
	alone.Metrics = nil
	if reps[0] != alone || reps[1] != alone {
		t.Errorf("runs sharing a registry report\n  %+v\n  %+v\nalone the run reports\n  %+v", reps[0], reps[1], alone)
	}
	if got := o.Metrics.Counter("waves.committed"); got != int64(2*alone.Waves) {
		t.Errorf("shared registry counts %d waves, want twice %d", got, alone.Waves)
	}
	var buf bytes.Buffer
	if err := o.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := sha(buf.Bytes()); got != sharedRegistrySHA {
		t.Errorf("shared registry export hashes to %s, recorded %s", got, sharedRegistrySHA)
	}
}

// TestDegradedRunKeepsCounters: a run that ends in a DegradedError still
// hands its counters to the caller's registry.
func TestDegradedRunKeepsCounters(t *testing.T) {
	reg := NewMetrics()
	_, err := Run(Options{Workload: WorkloadCGReal, NP: 8, ProcsPerNode: 2, Protocol: Pcl,
		Interval: 5 * time.Millisecond, Servers: 1, Seed: 3, Metrics: reg,
		Failures: []Failure{KillServer(12*time.Millisecond, 0), KillRank(14*time.Millisecond, 2)}})
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("err %v, want a DegradedError", err)
	}
	for _, c := range []string{"degraded.stops", "failures.server", "failures", "fabric.msgs", "waves.committed"} {
		if reg.Counter(c) == 0 {
			t.Errorf("%s is 0 in the caller's registry after the degraded stop", c)
		}
	}
}

// orderChild is the positional argument that turns
// TestSweepFreshProcessOrder into its own child process.
const orderChild = "sweep-order-child"

// TestSweepFreshProcessOrder runs Sweep over {mlog-64, pcl-64} in four
// fresh processes — both point orders, Jobs 1 and 2 — and requires four
// identical outputs.  The processes must be fresh: what it guards
// against is process-global state reaching a result (a cache, a counter,
// a table filled on first use), and a second Sweep in one process sees
// whatever the first one left behind and proves nothing.
func TestSweepFreshProcessOrder(t *testing.T) {
	if args := flag.Args(); len(args) == 3 && args[0] == orderChild {
		sweepOrderChild(t, args[1], args[2])
		return
	}
	if testing.Short() || raceEnabled {
		// Byte-identity across processes is not the race detector's
		// business, and four instrumented NP=64 sweeps cost it 40 s; CI
		// runs this test in the no-race step next to TestGoldenPinned.
		t.Skip("re-executes the test binary four times")
	}
	t.Parallel()
	variants := [][2]string{{"mlog-64,pcl-64", "1"}, {"mlog-64,pcl-64", "2"}, {"pcl-64,mlog-64", "1"}, {"pcl-64,mlog-64", "2"}}
	outs := make([][]byte, len(variants))
	errs := make([]error, len(variants))
	var wg sync.WaitGroup
	for i, v := range variants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = exec.Command(os.Args[0], "-test.run=^TestSweepFreshProcessOrder$", orderChild, v[0], v[1]).CombinedOutput()
		}()
	}
	wg.Wait()
	for i, v := range variants {
		if errs[i] != nil {
			t.Fatalf("child %v: %v\n%s", v, errs[i], outs[i])
		}
		if !bytes.Contains(outs[i], []byte("mlog-64 {")) {
			t.Fatalf("child %v printed no report:\n%s", v, outs[i])
		}
		if !bytes.Equal(outs[i], outs[0]) {
			t.Errorf("order %s at Jobs %s:\n%s\norder %s at Jobs %s:\n%s", variants[0][0], variants[0][1], outs[0], v[0], v[1], outs[i])
		}
	}
}

// sweepOrderChild sweeps the named scenario rows in the given order and
// prints their reports in name order, so every variant prints the same
// thing if its points came out the same.
func sweepOrderChild(t *testing.T, order, jobs string) {
	names := strings.Split(order, ",")
	var points []Options
	for _, name := range names {
		points = append(points, byName[name].opts)
	}
	j, err := strconv.Atoi(jobs)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := Sweep(points, SweepOptions{Jobs: j})
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for i, rep := range reps {
		rep.Metrics = nil // a pointer: its address differs per process
		lines[names[i]] = fmt.Sprintf("%s %+v\n", names[i], rep)
	}
	fmt.Print(lines["mlog-64"], lines["pcl-64"])
}
