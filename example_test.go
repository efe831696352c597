package ftckpt_test

import (
	"fmt"
	"log"
	"time"

	"ftckpt"
)

// Run a real distributed conjugate-gradient solve on eight simulated MPI
// processes with blocking coordinated checkpointing (the paper's Pcl
// protocol) and print what the fault-tolerance machinery did.
func Example() {
	rep, err := ftckpt.Run(ftckpt.Options{
		Workload: ftckpt.WorkloadCGReal, // an actual CG solve, not a model
		NP:       8,                     // eight MPI processes
		Protocol: ftckpt.Pcl,            // blocking coordinated checkpointing
		Interval: 5 * time.Millisecond,
		Servers:  2, // two checkpoint servers
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("conjugate gradient under blocking coordinated checkpointing")
	fmt.Printf("  completed in        %v (virtual time)\n", rep.Completion)
	fmt.Printf("  final residual      %g\n", rep.Checksum)
	fmt.Printf("  checkpoint waves    %d committed\n", rep.Waves)
	fmt.Printf("  local checkpoints   %d (%.2f MB shipped to servers)\n",
		rep.LocalCheckpoints, rep.CheckpointMB)
	fmt.Printf("  messages on wire    %d (%.2f MB payload)\n", rep.Messages, rep.PayloadMB)
	// Output:
	// conjugate gradient under blocking coordinated checkpointing
	//   completed in        31.10197ms (virtual time)
	//   final residual      9.616979266261908e-10
	//   checkpoint waves    4 committed
	//   local checkpoints   32 (2.20 MB shipped to servers)
	//   messages on wire    2636 (3.07 MB payload)
}

// Kill a process mid-run and show that rollback recovery reproduces the
// failure-free result exactly, for the blocking (Pcl) and non-blocking
// (Vcl) coordinated protocols and for message logging (Mlog).
//
// This is the core guarantee of coordinated checkpointing: the wave is a
// consistent global state, so the restarted computation is a legal
// continuation and a deterministic application reaches the same answer.
// Mlog reaches it by rolling back the failed process alone and replaying
// its logged messages.
func ExampleRun_recovery() {
	base := ftckpt.Options{
		Workload: ftckpt.WorkloadCGReal,
		NP:       8,
		Servers:  2,
		Seed:     42,
	}

	// Reference: failure-free, no checkpointing.
	ref, err := ftckpt.Run(base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failure-free run:  completion %v, residual %g\n\n", ref.Completion, ref.Checksum)

	for _, proto := range []ftckpt.Protocol{ftckpt.Pcl, ftckpt.Vcl, ftckpt.Mlog} {
		o := base
		o.Protocol = proto
		o.Interval = 5 * time.Millisecond
		// Kill rank 3 roughly mid-run; the dispatcher detects the broken
		// connection and restarts from the last committed checkpoint.
		o.Failures = []ftckpt.Failure{ftckpt.KillRank(ref.Completion/2, 3)}

		rep, err := ftckpt.Run(o)
		if err != nil {
			log.Fatal(err)
		}
		ok := "IDENTICAL to failure-free run"
		if rep.Checksum != ref.Checksum {
			ok = fmt.Sprintf("MISMATCH (%g)", rep.Checksum)
		}
		fmt.Printf("%s with failure:\n", proto)
		fmt.Printf("  completion   %v (%.1fx failure-free)\n",
			rep.Completion, float64(rep.Completion)/float64(ref.Completion))
		fmt.Printf("  waves        %d committed, %d restart(s)\n", rep.Waves, rep.Restarts)
		if proto == ftckpt.Vcl {
			fmt.Printf("  channel log  %d in-transit messages captured (%.2f MB)\n",
				rep.LoggedMessages, rep.LoggedMB)
		}
		if proto == ftckpt.Mlog {
			fmt.Printf("  note         single-process recovery: only rank 3 rolled back;\n")
			fmt.Printf("               %d messages were logged pessimistically\n", rep.LoggedMessages)
		}
		fmt.Printf("  residual     %s\n\n", ok)
	}
	// Output:
	// failure-free run:  completion 30.848936ms, residual 7.27365647328481e-10
	//
	// pcl with failure:
	//   completion   44.050946ms (1.4x failure-free)
	//   waves        4 committed, 1 restart(s)
	//   residual     IDENTICAL to failure-free run
	//
	// vcl with failure:
	//   completion   63.360643ms (2.1x failure-free)
	//   waves        6 committed, 1 restart(s)
	//   channel log  39 in-transit messages captured (0.05 MB)
	//   residual     IDENTICAL to failure-free run
	//
	// mlog with failure:
	//   completion   86.5119ms (2.8x failure-free)
	//   waves        128 committed, 1 restart(s)
	//   note         single-process recovery: only rank 3 rolled back;
	//                2380 messages were logged pessimistically
	//   residual     IDENTICAL to failure-free run
}

// Explore the checkpoint-interval trade-off under random failures, the
// paper's closing observation that "the best value for the checkpoint
// wave frequency is close to the MTTF".
//
// Too-frequent waves waste time synchronizing and shipping images;
// too-rare waves lose large amounts of work at each rollback.  The points
// of a Sweep are independent simulations, so they run concurrently and
// still come back in input order.
func ExampleSweep() {
	const mttf = 600 * time.Millisecond

	base := ftckpt.Options{
		Workload: ftckpt.WorkloadCG,
		Class:    ftckpt.ClassA,
		NP:       8,
		Protocol: ftckpt.Pcl,
		Servers:  2,
		MTTF:     mttf,
		Seed:     5,
	}

	intervals := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
	}
	points := make([]ftckpt.Options, len(intervals))
	for i, iv := range intervals {
		points[i] = base
		points[i].Interval = iv
	}

	reps, err := ftckpt.Sweep(points, ftckpt.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("CG class A under random failures (MTTF %v), blocking checkpointing\n\n", mttf)
	fmt.Printf("%-10s %14s %7s %9s\n", "interval", "completion", "waves", "restarts")

	best := time.Duration(0)
	var bestIv time.Duration
	for i, rep := range reps {
		iv := intervals[i]
		fmt.Printf("%-10v %14v %7d %9d\n", iv, rep.Completion, rep.Waves, rep.Restarts)
		if best == 0 || rep.Completion < best {
			best, bestIv = rep.Completion, iv
		}
	}
	fmt.Printf("\nbest interval in this sweep: %v (completion %v)\n", bestIv, best)
	// Output:
	// CG class A under random failures (MTTF 600ms), blocking checkpointing
	//
	// interval       completion   waves  restarts
	// 50ms         4.339629954s      13         4
	// 100ms          4.5017663s      10         4
	// 200ms        4.310719571s       7         4
	// 400ms        4.575541492s       4         4
	// 800ms        5.110589863s       2         4
	// 1.6s          9.64005658s       1         7
	//
	// best interval in this sweep: 200ms (completion 4.310719571s)
}
