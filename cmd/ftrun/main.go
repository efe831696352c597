// Command ftrun executes one fault-tolerant MPI run on the simulated
// platform and prints its report — the equivalent of the paper's mpiexec
// under the fault tolerant process manager.
//
// Examples:
//
//	ftrun -bench bt -class B -np 64 -ppn 2 -proto pcl -interval 30s -servers 4
//	ftrun -bench cg -class C -np 64 -ppn 2 -proto vcl -interval 15s -platform myrinet-tcp
//	ftrun -bench cg-real -np 8 -proto pcl -interval 5ms -fail-at 20ms -fail-rank 3 -v
//	ftrun -bench jacobi -np 8 -proto pcl -interval 25ms -recovery ulfm -spares 2 -fail-at 40ms -fail-rank 3
//
// With -chaos N the run executes under a seeded random failure schedule
// (rank, node, checkpoint-server, staging-buffer and PFS-target kills)
// and checks the recovery invariants; replication across servers is
// controlled by -replicas and -quorum, and -heartbeat enables the
// ping/timeout failure detector:
//
//	ftrun -bench cg-real -np 8 -proto pcl -interval 5ms -servers 2 -replicas 2 -quorum 1 \
//	      -chaos 3 -chaos-seed 7 -chaos-server-frac 0.3 -chaos-until 60ms
//
// -storage-levels selects the multi-level checkpoint storage hierarchy
// instead of the one servers level the server and replication flags
// describe (levels fastest-first; its servers level carries the
// server/replica counts, so -servers/-replicas/-quorum must stay unset);
// -incremental and -compress tune the image planner:
//
//	ftrun -bench cg-real -np 8 -proto pcl -interval 5ms \
//	      -storage-levels buffer,servers:2x2,pfs:4x2 -incremental -compress
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run and
// -allocs prints its allocation statistics.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ftckpt"
)

func main() {
	var (
		bench    = flag.String("bench", "bt", "workload: bt, cg (models), cg-real, jacobi (real)")
		class    = flag.String("class", "B", "NPB class for model workloads: A, B, C")
		np       = flag.Int("np", 16, "number of MPI processes")
		ppn      = flag.Int("ppn", 1, "processes per node (2 = dual-processor nodes)")
		proto    = flag.String("proto", "none", "protocol: none, pcl (blocking), vcl (non-blocking), mlog (message logging)")
		interval = flag.Duration("interval", 30*time.Second, "time between checkpoint waves")
		servers  = flag.Int("servers", 1, "number of checkpoint servers")
		plat     = flag.String("platform", "ethernet", "platform: ethernet, myrinet-gm, myrinet-tcp, grid")
		seed     = flag.Int64("seed", 1, "simulation seed")
		failAt   = flag.Duration("fail-at", 0, "inject a failure at this virtual time (0 = none)")
		failRank = flag.Int("fail-rank", 0, "rank killed by -fail-at")
		mttf     = flag.Duration("mttf", 0, "mean time to failure for random failures (0 = none)")
		srvMTTF  = flag.Duration("server-mttf", 0, "mean time to failure for checkpoint servers (0 = none)")
		nodeMTTF = flag.Duration("node-mttf", 0, "mean time to failure for compute nodes (0 = none)")
		replicas = flag.Int("replicas", 0, "copies of each checkpoint image across servers (0/1 = single copy)")
		quorum   = flag.Int("quorum", 0, "replicas that must acknowledge a store (0 = all replicas)")
		retries  = flag.Int("retries", 0, "store/fetch retry attempts after a replica dies")
		backoff  = flag.Duration("retry-backoff", 0, "delay before each store/fetch retry")
		storage  = flag.String("storage-levels", "", "multi-level storage hierarchy, fastest first: e.g. buffer,servers:2x2,pfs:4x2 (servers:NxR = N servers R replicas, pfs:TxS = T targets S stripes); replaces the one servers level -servers/-replicas/-quorum/-retries/-retry-backoff describe, so it conflicts with them")
		incr     = flag.Bool("incremental", false, "dirty-region incremental checkpoint images (requires -storage-levels)")
		compress = flag.Bool("compress", false, "compress checkpoint images (requires -storage-levels)")
		hbPeriod = flag.Duration("heartbeat", 0, "heartbeat ping period; 0 keeps instant failure detection")
		hbTmo    = flag.Duration("hb-timeout", 0, "silence before a component is declared dead (0 = 4x the period)")
		recovery = flag.String("recovery", "restart", "failure recovery: restart (rollback the whole job) or ulfm (in-job repair from partner snapshots)")
		spares   = flag.Int("spares", 0, "spare compute nodes reserved for ulfm node-loss repairs")

		chaosN       = flag.Int("chaos", 0, "run under a seeded random failure schedule of this many kills")
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed of the chaos schedule")
		chaosSrvFrac = flag.Float64("chaos-server-frac", 0.25, "fraction of chaos kills aimed at checkpoint servers")
		chaosNdFrac  = flag.Float64("chaos-node-frac", 0.25, "fraction of chaos kills aimed at whole compute nodes")
		chaosBufFrac = flag.Float64("chaos-buffer-frac", 0, "fraction of chaos kills aimed at node-local staging buffers (requires a buffer level)")
		chaosPFSFrac = flag.Float64("chaos-pfs-frac", 0, "fraction of chaos kills aimed at PFS targets (requires a pfs level)")
		chaosFrom    = flag.Duration("chaos-from", 10*time.Millisecond, "start of the chaos kill window")
		chaosUntil   = flag.Duration("chaos-until", 100*time.Millisecond, "end of the chaos kill window")
		verbose      = flag.Bool("v", false, "write every event to stderr, one line each: virtual ns, type, rank, wave, channel, node, server, level, bytes, seq, span, cause")
		traceOut     = flag.String("trace-out", "", "write a Chrome trace_event timeline (open in Perfetto) to this file")
		metOut       = flag.String("metrics-out", "", "write the run's metrics to this file (.csv extension selects CSV, else JSON)")
		explain      = flag.Bool("explain", false, "trace causal spans and print the per-phase overhead attribution (conservation-checked)")
		explOut      = flag.String("explain-out", "", "write the attribution report as deterministic JSON to this file (implies span tracing)")
		metSnap      = flag.Duration("metrics-snapshot", 0, "sample cumulative counters every period as Perfetto counter tracks (0 = off)")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProf = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
		allocs  = flag.Bool("allocs", false, "print the run's allocation statistics (mallocs, bytes, GC cycles) to stderr")
		stats   = flag.Bool("stats", false, "print the event kernel's counters (events scheduled/fired/cancelled, LP resumes, heap/slab/lane high-water marks) to stderr")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() > 0 {
		// The flag package stops at the first non-flag word, so everything
		// after it would be silently dropped.
		fmt.Fprintf(os.Stderr, "ftrun: unexpected argument %q (every option is a flag)\n", flag.Arg(0))
		os.Exit(2)
	}

	o := ftckpt.Options{
		Workload:     ftckpt.Workload(*bench),
		Class:        ftckpt.Class(*class),
		NP:           *np,
		ProcsPerNode: *ppn,
		Protocol:     ftckpt.Protocol(*proto),
		Heartbeat: &ftckpt.HeartbeatSpec{
			Period:  *hbPeriod,
			Timeout: *hbTmo,
		},
		Platform:   ftckpt.Platform(*plat),
		Recovery:   ftckpt.RecoveryMode(*recovery),
		Spares:     *spares,
		Seed:       *seed,
		MTTF:       *mttf,
		ServerMTTF: *srvMTTF,
		NodeMTTF:   *nodeMTTF,
	}
	// One spec describes the storage tier: -storage-levels, or else the
	// single servers level the server and replication flags describe.
	o.Storage = &ftckpt.StorageSpec{Levels: []ftckpt.LevelSpec{{Kind: ftckpt.LevelServers,
		Servers: *servers, Replicas: *replicas, WriteQuorum: *quorum, StoreRetries: *retries, RetryBackoff: *backoff}}}
	if *storage != "" {
		// The hierarchy's levels carry the server and replication knobs;
		// the flat flags would silently disagree with them.
		for _, name := range []string{"servers", "replicas", "quorum", "retries", "retry-backoff"} {
			if flagSet(name) {
				fmt.Fprintf(os.Stderr, "ftrun: -%s conflicts with -storage-levels (set it on the hierarchy's servers level)\n", name)
				os.Exit(2)
			}
		}
		spec, err := parseStorageLevels(*storage)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ftrun: -storage-levels:", err)
			os.Exit(2)
		}
		o.Storage = spec
	} else if *incr {
		fmt.Fprintln(os.Stderr, "ftrun: -incremental requires -storage-levels")
		os.Exit(2)
	} else if *compress {
		fmt.Fprintln(os.Stderr, "ftrun: -compress requires -storage-levels")
		os.Exit(2)
	}
	o.Storage.Incremental = *incr
	o.Storage.Compress = *compress
	if *stats && *chaosN > 0 {
		fmt.Fprintln(os.Stderr, "ftrun: -stats conflicts with -chaos (a chaos run reports no kernel counters)")
		os.Exit(2)
	}
	if *proto != "none" {
		o.Interval = *interval
	}
	if flagSet("fail-rank") && *failAt <= 0 {
		fmt.Fprintln(os.Stderr, "ftrun: -fail-rank requires -fail-at (no failure is injected without a time)")
		os.Exit(2)
	}
	if *failAt > 0 {
		o.Failures = []ftckpt.Failure{ftckpt.KillRank(*failAt, *failRank)}
	}
	o.Attribution = *explain || *explOut != ""
	o.MetricsSnapshot = *metSnap
	// flush completes the -v event stream and the -trace-out document.  It
	// runs before the exit is decided and before anything else is printed
	// to stderr: a failure-aborted run (degraded stop, deadline) must
	// still leave every event line and a valid trace, its open intervals
	// closed and the JSON tail written.
	var sinks fanout
	var closers []func() error
	if *verbose {
		w := bufio.NewWriterSize(os.Stderr, 1<<16)
		sinks = append(sinks, ftckpt.NewLineSink(w))
		closers = append(closers, w.Flush)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ftrun:", err)
			os.Exit(1)
		}
		w := bufio.NewWriterSize(f, 1<<16)
		trace := ftckpt.NewChromeStreamSink(w)
		sinks = append(sinks, trace)
		closers = append(closers, trace.Close, w.Flush, f.Close)
	}
	if len(sinks) > 0 {
		o.Sink = sinks
	}
	flush := func() {
		for _, c := range closers {
			if err := c(); err != nil {
				fmt.Fprintln(os.Stderr, "ftrun:", err)
				os.Exit(1)
			}
		}
	}

	finishProf := startProfiling(*cpuProf, *memProf, *allocs)

	if *chaosN > 0 {
		rep, code := runChaos(o, ftckpt.ChaosSpec{
			Seed:       *chaosSeed,
			Kills:      *chaosN,
			ServerFrac: *chaosSrvFrac,
			NodeFrac:   *chaosNdFrac,
			BufferFrac: *chaosBufFrac,
			PFSFrac:    *chaosPFSFrac,
			From:       *chaosFrom,
			Until:      *chaosUntil,
		}, *explain, *explOut)
		flush()
		finishProf()
		if rep.Report.Metrics != nil {
			writeMetrics(*metOut, rep.Report.Metrics)
		}
		os.Exit(code)
	}

	rep, kst, err := ftckpt.RunKernelStats(o)
	flush()
	finishProf()
	if *stats {
		perMsg := 0.0
		if rep.Messages > 0 {
			perMsg = float64(kst.Resumes) / float64(rep.Messages)
		}
		fmt.Fprintf(os.Stderr, "kernel            %d events scheduled, %d fired, %d cancelled; %d LP resumes (%.2f per message); high water: heap %d, slab %d, lanes %d\n",
			kst.Scheduled, kst.Fired, kst.Cancelled, kst.Resumes, perMsg, kst.HeapMax, kst.SlabMax, kst.LaneMax)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftrun:", err)
		os.Exit(1)
	}
	writeMetrics(*metOut, rep.Metrics)
	fmt.Printf("workload          %s (class %s), np=%d ppn=%d on %s\n", *bench, *class, *np, *ppn, *plat)
	fmt.Printf("protocol          %s", *proto)
	if *proto != "none" {
		if *storage != "" {
			fmt.Printf(", wave every %v, storage %s", *interval, *storage)
		} else {
			fmt.Printf(", wave every %v, %d server(s)", *interval, *servers)
		}
	}
	fmt.Println()
	fmt.Printf("completion        %v\n", rep.Completion)
	fmt.Printf("waves committed   %d (%d local checkpoints, %.1f MB stored on servers)\n",
		rep.Waves, rep.LocalCheckpoints, rep.CheckpointMB)
	if *storage != "" {
		printLevels(o.Storage.Levels, rep.Metrics)
	}
	if rep.Waves > 0 {
		fmt.Printf("wave breakdown    snapshot straggle %v, transfer %v, cycle %v (means)\n",
			rep.MeanWaveSpread, rep.MeanWaveTransfer, rep.MeanWaveCycle)
	}
	if rep.Restarts > 0 {
		fmt.Printf("restarts          %d\n", rep.Restarts)
	}
	if rep.Repairs > 0 {
		fmt.Printf("repairs           %d in-job (%v work redone, %.4f of total recovered)\n",
			rep.Repairs, rep.LostWork, rep.RecoveredWork)
	}
	if rep.LoggedMessages > 0 {
		fmt.Printf("channel state     %d messages, %.2f MB logged\n", rep.LoggedMessages, rep.LoggedMB)
	}
	fmt.Printf("traffic           %d messages, %.1f MB payload\n", rep.Messages, rep.PayloadMB)
	fmt.Printf("checksum          %v\n", rep.Checksum)
	if *traceOut != "" {
		fmt.Printf("timeline          %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	}
	if *metOut != "" {
		fmt.Printf("metrics           %s\n", *metOut)
	}
	if rep.Attribution != nil {
		if code := explainReport(rep.Attribution, *explain, *explOut); code != 0 {
			os.Exit(code)
		}
	}
}

// printLevels writes the images each storage level holds: what landed
// in the buffer or the PFS (one copy), and the servers' own bytes, replicas
// included, whether drained there or stored directly.
func printLevels(levels []ftckpt.LevelSpec, m *ftckpt.Metrics) {
	fmt.Print("levels           ")
	for k, l := range levels {
		b := m.LevelBytes[k]
		with := ""
		if l.Kind == ftckpt.LevelServers {
			b, with = 0, " with replicas"
			for _, n := range m.ServerBytes {
				b += n
			}
		}
		sep := ","
		if k == 0 {
			sep = ""
		}
		fmt.Printf("%s %s %.1f MB%s", sep, l.Kind, float64(b)/(1<<20), with)
	}
	fmt.Println()
}

// fanout feeds every event to each of its sinks (-v beside -trace-out).
type fanout []ftckpt.Sink

func (f fanout) Emit(ev ftckpt.Event) {
	for _, s := range f {
		s.Emit(ev)
	}
}

// explainReport validates and emits the attribution: the conservation
// check must hold (a broken partition is a bug, exit non-zero), then the
// table goes to stdout and/or the deterministic JSON to a file.
func explainReport(a *ftckpt.Attribution, table bool, jsonPath string) int {
	if err := a.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "ftrun: attribution conservation violated:", err)
		return 1
	}
	if jsonPath != "" {
		writeFile(jsonPath, a.WriteJSON)
		fmt.Printf("attribution       %s\n", jsonPath)
	}
	if table {
		fmt.Println()
		if err := a.WriteTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ftrun:", err)
			return 1
		}
	}
	return 0
}

// runChaos executes the job under a seeded random failure schedule and
// reports the recovery-invariant verdict.  It returns the report and the
// process exit code rather than exiting, so profiling output and the
// requested artifacts are flushed first.  Invariant violations are
// non-zero; a degraded stop (unrecoverable loss, expected without
// replication) is a reported outcome.
func runChaos(o ftckpt.Options, sp ftckpt.ChaosSpec, explain bool, explOut string) (ftckpt.ChaosReport, int) {
	rep, err := ftckpt.Chaos(o, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftrun:", err)
		return rep, 1
	}
	fmt.Printf("chaos schedule    seed %d, %d kills in [%v, %v)\n", sp.Seed, sp.Kills, sp.From, sp.Until)
	for _, f := range rep.Plan {
		fmt.Printf("  kill %-6s %-3d @ %v\n", f.Kind, f.Victim(), f.At)
	}
	if rep.Degraded != nil {
		fmt.Printf("outcome           degraded stop: %v\n", rep.Degraded)
	} else {
		fmt.Printf("outcome           recovered: completion %v, %d restarts, %d repairs, %d failovers\n",
			rep.Report.Completion, rep.Report.Restarts, rep.Report.Repairs, rep.Report.Failovers)
		if rep.Report.Repairs > 0 {
			fmt.Printf("recovered work    %.4f of total (%v redone in-job)\n",
				rep.Report.RecoveredWork, rep.Report.LostWork)
		}
		fmt.Printf("checksum          %v (reference %v)\n", rep.Checksum, rep.Reference)
	}
	if rep.Report.Attribution != nil {
		if code := explainReport(rep.Report.Attribution, explain, explOut); code != 0 {
			return rep, code
		}
	}
	if !rep.OK() {
		fmt.Println("INVARIANT VIOLATIONS:")
		for _, v := range rep.Violations {
			fmt.Println("  " + v)
		}
		return rep, 1
	}
	fmt.Println("invariants        all held")
	return rep, 0
}

// startProfiling arms the requested profilers and returns the function
// that finalizes them once the run is over.  The CPU profile covers the
// whole run; the heap profile is taken after a final GC so it shows what
// the run left live, and -allocs prints cumulative allocation counters
// (the number TestAllocCeilings bounds) without any profile file.
func startProfiling(cpuPath, memPath string, allocStats bool) func() {
	var m0 runtime.MemStats
	if allocStats {
		runtime.GC()
		runtime.ReadMemStats(&m0)
	}
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ftrun:", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	start := time.Now()
	return func() {
		wall := time.Since(start)
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ftrun:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "cpuprofile        %s\n", cpuPath)
		}
		if allocStats {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			fmt.Fprintf(os.Stderr, "allocs            %d mallocs, %.1f MB allocated, %d GC cycles, %v wall\n",
				m1.Mallocs-m0.Mallocs,
				float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20),
				m1.NumGC-m0.NumGC, wall.Round(time.Millisecond))
		}
		if memPath != "" {
			runtime.GC()
			writeFile(memPath, pprof.WriteHeapProfile)
			fmt.Fprintf(os.Stderr, "memprofile        %s\n", memPath)
		}
	}
}

// usage prints the flags in task groups (workload, protocol, storage and
// replication, failures, chaos, output, profiling) instead of the flag
// package's flat alphabetical dump — the storage flags sit next to the
// replication flags they interact with.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "Usage of ftrun:")
	groups := []struct {
		title string
		names []string
	}{
		{"Workload and platform", []string{"bench", "class", "np", "ppn", "platform", "seed"}},
		{"Protocol", []string{"proto", "interval"}},
		{"Storage and replication", []string{"servers", "replicas", "quorum", "retries", "retry-backoff",
			"storage-levels", "incremental", "compress"}},
		{"Failure injection, detection and recovery", []string{"fail-at", "fail-rank", "mttf", "server-mttf",
			"node-mttf", "heartbeat", "hb-timeout", "recovery", "spares"}},
		{"Chaos harness", []string{"chaos", "chaos-seed", "chaos-server-frac", "chaos-node-frac",
			"chaos-buffer-frac", "chaos-pfs-frac", "chaos-from", "chaos-until"}},
		{"Output", []string{"v", "trace-out", "metrics-out", "metrics-snapshot",
			"explain", "explain-out"}},
		{"Profiling", []string{"cpuprofile", "memprofile", "allocs", "stats"}},
	}
	for _, g := range groups {
		fmt.Fprintf(w, "\n%s:\n", g.title)
		for _, name := range g.names {
			f := flag.Lookup(name)
			if f == nil {
				continue
			}
			arg, use := flag.UnquoteUsage(f)
			head := "-" + f.Name
			if arg != "" {
				head += " " + arg
			}
			if f.DefValue != "" && f.DefValue != "false" && f.DefValue != "0" && f.DefValue != "0s" {
				use += fmt.Sprintf(" (default %v)", f.DefValue)
			}
			fmt.Fprintf(w, "  %s\n    \t%s\n", head, use)
		}
	}
}

// flagSet reports whether the named flag was set on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// parseStorageLevels parses the -storage-levels syntax: comma-separated
// levels fastest-first, "buffer", "servers:NxR" (N servers, R replicas;
// ":N" alone keeps single copies) and "pfs:TxS" (T targets, S stripes).
func parseStorageLevels(s string) (*ftckpt.StorageSpec, error) {
	spec := &ftckpt.StorageSpec{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		kind, arg, hasArg := strings.Cut(part, ":")
		two := func() (int, int, error) {
			a, b, hasB := strings.Cut(arg, "x")
			n1, err := strconv.Atoi(a)
			if err != nil {
				return 0, 0, fmt.Errorf("level %q: bad count %q", part, a)
			}
			n2 := 0
			if hasB {
				if n2, err = strconv.Atoi(b); err != nil {
					return 0, 0, fmt.Errorf("level %q: bad count %q", part, b)
				}
			}
			return n1, n2, nil
		}
		switch kind {
		case "buffer":
			if hasArg {
				return nil, fmt.Errorf("level %q: buffer takes no arguments", part)
			}
			spec.Levels = append(spec.Levels, ftckpt.LevelSpec{Kind: ftckpt.LevelBuffer})
		case "servers":
			if !hasArg {
				return nil, fmt.Errorf("level %q: want servers:NxR (N servers, R replicas)", part)
			}
			n, r, err := two()
			if err != nil {
				return nil, err
			}
			spec.Levels = append(spec.Levels, ftckpt.LevelSpec{Kind: ftckpt.LevelServers, Servers: n, Replicas: r})
		case "pfs":
			l := ftckpt.LevelSpec{Kind: ftckpt.LevelPFS}
			if hasArg {
				t, st, err := two()
				if err != nil {
					return nil, err
				}
				l.Targets, l.Stripes = t, st
			}
			spec.Levels = append(spec.Levels, l)
		default:
			return nil, fmt.Errorf("unknown level %q (want buffer, servers:NxR or pfs:TxS)", part)
		}
	}
	return spec, nil
}

// writeMetrics writes the -metrics-out export (nothing when path is empty);
// a .csv extension selects CSV, anything else JSON.
func writeMetrics(path string, m *ftckpt.Metrics) {
	if path == "" {
		return
	}
	write := m.WriteJSON
	if strings.HasSuffix(path, ".csv") {
		write = m.WriteCSV
	}
	writeFile(path, write)
}

// writeFile writes one export, treating any failure as fatal: a run whose
// requested artifacts cannot be saved should not exit 0.
func writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftrun:", err)
		os.Exit(1)
	}
}
