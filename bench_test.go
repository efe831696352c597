package ftckpt_test

// Benchmarks regenerating the paper's evaluation: one benchmark per figure
// (Figs. 5–10) plus the NetPIPE characterization and ablation studies of
// the design choices called out in DESIGN.md.
//
// Each benchmark iteration performs the figure's full simulation sweep and
// reports the headline quantities as custom metrics (virtual seconds,
// committed waves), so `go test -bench . -benchmem` both exercises and
// summarizes the reproduction.  Under `-short`, the Quick harnesses run
// (~10x smaller workloads, same shapes).

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ftckpt/internal/expt"
	"ftckpt/internal/failure"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
	"ftckpt/internal/platform"
)

func benchOpts(b *testing.B) expt.Options {
	return expt.Options{Quick: testing.Short(), Seed: 1}
}

// BenchmarkNetpipePlatform regenerates the §5.4 NetPIPE characterization.
func BenchmarkNetpipePlatform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Netpipe(benchOpts(b))
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.IntraBW, "intraMB/s")
		b.ReportMetric(last.InterBW, "interMB/s")
		b.ReportMetric(float64(rows[0].InterRTT)/float64(rows[0].IntraRTT), "latencyRatio")
	}
}

// BenchmarkFig5CheckpointServers regenerates Fig. 5 (BT.B/64, server sweep).
func BenchmarkFig5CheckpointServers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig5(benchOpts(b))
		if err != nil {
			b.Fatal(err)
		}
		first, last := rows[0], rows[len(rows)-1]
		b.ReportMetric(first.PclTime.Seconds(), "pcl1srv-s")
		b.ReportMetric(last.PclTime.Seconds(), "pcl8srv-s")
		b.ReportMetric(float64(last.VclWaves), "vcl8srv-waves")
	}
}

// BenchmarkFig6Scalability regenerates Fig. 6 (BT.B size/frequency sweep).
func BenchmarkFig6Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig6(benchOpts(b))
		if err != nil {
			b.Fatal(err)
		}
		// Report the overhead gap between the fastest and slowest
		// checkpoint frequency at the largest size.
		var fast, slow expt.Fig6Row
		for _, r := range rows {
			if r.NP == rows[len(rows)-1].NP {
				if fast.NP == 0 || r.Interval < fast.Interval {
					fast = r
				}
				if slow.NP == 0 || r.Interval > slow.Interval {
					slow = r
				}
			}
		}
		b.ReportMetric(float64(fast.Pcl-fast.None)/float64(fast.None)*100, "pclOvFast%")
		b.ReportMetric(float64(slow.Pcl-slow.None)/float64(slow.None)*100, "pclOvSlow%")
	}
}

// BenchmarkFig7HighSpeed regenerates Fig. 7 (CG.C/64 on Myrinet, 3 stacks).
func BenchmarkFig7HighSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig7(benchOpts(b))
		if err != nil {
			b.Fatal(err)
		}
		base := map[string]expt.Fig7Row{}
		for _, r := range rows {
			if r.Interval == 0 {
				base[r.Stack] = r
			}
		}
		b.ReportMetric(base["pcl-nemesis"].Time.Seconds(), "nemesis-s")
		b.ReportMetric(base["pcl-sock"].Time.Seconds(), "sock-s")
		b.ReportMetric(base["vcl"].Time.Seconds(), "vcl-s")
	}
}

// BenchmarkFig8WaveScaling regenerates Fig. 8 (CG.C size sweep, Nemesis).
func BenchmarkFig8WaveScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig8(benchOpts(b))
		if err != nil {
			b.Fatal(err)
		}
		waves := 0
		for _, r := range rows {
			waves += r.Waves
		}
		b.ReportMetric(float64(waves), "totalWaves")
	}
}

// BenchmarkFig9GridFrequency regenerates Fig. 9 (BT.B/400 on the grid).
func BenchmarkFig9GridFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig9(benchOpts(b))
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.Time.Seconds(), "fastestIv-s")
		b.ReportMetric(float64(last.Waves), "fastestIv-waves")
	}
}

// BenchmarkFig10GridScale regenerates Fig. 10 (grid size sweep).
func BenchmarkFig10GridScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig10(benchOpts(b))
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.NoCkpt.Seconds(), "largestNone-s")
		b.ReportMetric(last.Ckpt60.Seconds(), "largestCkpt-s")
	}
}

// BenchmarkSweepJobs measures the parallel sweep executor against the
// sequential baseline on the Fig. 6 grid (the widest sweep: intervals ×
// sizes × three protocols).  The jobs=1 case is the classic sequential
// sweep; jobs=N fans the points over runtime.NumCPU() workers.  Output
// is byte-identical either way, so the delta is pure wall-clock.
func BenchmarkSweepJobs(b *testing.B) {
	for _, jobs := range []int{1, runtime.NumCPU()} {
		jobs := jobs
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOpts(b)
				o.Jobs = jobs
				if _, err := expt.Fig6(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProtocolFamilies contrasts the two fault-tolerance families in
// one failure-free run (§2's comparison): coordinated checkpointing
// (blocking and non-blocking) pays per wave, pessimistic message logging
// pays on every message.
func BenchmarkProtocolFamilies(b *testing.B) {
	class := nas.CGClassA
	mk := func(rank, size int) mpi.Program { return nas.NewCGModel(class, rank, size) }
	base := func() ftpm.Config {
		return ftpm.Config{
			NP:           16,
			ProcsPerNode: 2,
			Servers:      2,
			Topology:     platform.EthernetCluster(16),
			Profile:      platform.PclSock,
			NewProgram:   mk,
			Seed:         1,
		}
	}
	for i := 0; i < b.N; i++ {
		cfg := base()
		none, err := ftpm.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg = base()
		cfg.Protocol = ftpm.ProtoPcl
		cfg.Interval = none.Completion / 4
		pcl, err := ftpm.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg = base()
		cfg.Protocol = ftpm.ProtoVcl
		cfg.Profile = platform.Vcl
		cfg.Interval = none.Completion / 4
		vcl, err := ftpm.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg = base()
		cfg.Protocol = ftpm.ProtoMlog
		cfg.Profile = platform.Vcl
		cfg.Interval = none.Completion / 4
		mlog, err := ftpm.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(none.Completion.Seconds(), "none-s")
		b.ReportMetric(pcl.Completion.Seconds(), "pcl-s")
		b.ReportMetric(vcl.Completion.Seconds(), "vcl-s")
		b.ReportMetric(mlog.Completion.Seconds(), "mlog-s")
	}
}

// --- ablations -----------------------------------------------------------

// ablationBase is a mid-size BT run used by the ablation benchmarks.
func ablationBase(interval time.Duration) ftpm.Config {
	class := nas.BTClassA
	if testing.Short() {
		class.Iters = 40
	}
	return ftpm.Config{
		NP:           16,
		ProcsPerNode: 2,
		Protocol:     ftpm.ProtoPcl,
		Interval:     interval,
		Servers:      2,
		Topology:     platform.EthernetCluster(16),
		Profile:      platform.PclSock,
		NewProgram:   func(rank, size int) mpi.Program { return nas.NewBTModel(class, rank, size) },
		Seed:         1,
	}
}

// cgAblationCfg is a latency-bound CG-model run, where per-message costs
// actually matter.
func cgAblationCfg() ftpm.Config {
	class := nas.CGClassB
	if testing.Short() {
		class.Iters = 15
	}
	return ftpm.Config{
		NP:           16,
		ProcsPerNode: 2,
		Servers:      2,
		Topology:     platform.EthernetCluster(16),
		Profile:      platform.PclSock,
		NewProgram:   func(rank, size int) mpi.Program { return nas.NewCGModel(class, rank, size) },
		Seed:         1,
	}
}

// BenchmarkAblationDaemonOverhead isolates the Vcl daemon's per-message
// cost (DESIGN.md §5.3) on the latency-bound CG benchmark: the same
// failure-free run through the daemon path and through a hypothetical
// daemon-free non-blocking stack.
func BenchmarkAblationDaemonOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := cgAblationCfg()
		with.Profile = platform.Vcl
		rw, err := ftpm.Run(with)
		if err != nil {
			b.Fatal(err)
		}
		without := cgAblationCfg()
		prof := platform.Vcl
		prof.DaemonLatency = 0
		prof.DaemonCopyBW = 0
		without.Profile = prof
		ro, err := ftpm.Run(without)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rw.Completion.Seconds(), "daemon-s")
		b.ReportMetric(ro.Completion.Seconds(), "noDaemon-s")
		b.ReportMetric((float64(rw.Completion)/float64(ro.Completion)-1)*100, "daemonCost%")
	}
}

// BenchmarkAblationMarkerHandling isolates the progress-engine asymmetry:
// Pcl handles markers only inside MPI calls (synchronous profile), so the
// channel flush straggles while processes compute; handling markers
// asynchronously (as Vcl's daemon architecture does) completes waves much
// faster.  On a compute-heavy BT step the asynchronous variant commits
// ~1.6x more checkpoints, trading a few percent of completion time (each
// extra wave steals transfer CPU) for far better protection — the
// architectural trait the paper credits to MPICH-V's daemon.
func BenchmarkAblationMarkerHandling(b *testing.B) {
	class := nas.BTClassC
	class.Iters = 30
	if testing.Short() {
		class.Iters = 10
	}
	mk := func(rank, size int) mpi.Program { return nas.NewBTModel(class, rank, size) }
	for i := 0; i < b.N; i++ {
		syncCfg := ablationBase(20 * time.Second)
		syncCfg.NewProgram = mk
		rs, err := ftpm.Run(syncCfg)
		if err != nil {
			b.Fatal(err)
		}
		asyncCfg := ablationBase(20 * time.Second)
		asyncCfg.NewProgram = mk
		prof := asyncCfg.Profile
		prof.Async = true
		asyncCfg.Profile = prof
		ra, err := ftpm.Run(asyncCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rs.Completion.Seconds(), "inCall-s")
		b.ReportMetric(ra.Completion.Seconds(), "async-s")
		b.ReportMetric(float64(rs.WavesCommitted), "inCall-waves")
		b.ReportMetric(float64(ra.WavesCommitted), "async-waves")
	}
}

// BenchmarkAblationRestartCost measures rollback/recovery cost as a
// function of image size: the restart fetches every image from the
// checkpoint servers.
func BenchmarkAblationRestartCost(b *testing.B) {
	for _, mb := range []int64{1, 16, 64} {
		mb := mb
		b.Run(map[int64]string{1: "img1MB", 16: "img16MB", 64: "img64MB"}[mb], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				class := nas.BTClassA
				class.Iters = 60
				class.BytesPerCell = mb << 20 * int64(16) / (int64(class.Grid) * int64(class.Grid) * int64(class.Grid))
				cfg := ablationBase(2 * time.Second)
				cfg.NewProgram = func(rank, size int) mpi.Program { return nas.NewBTModel(class, rank, size) }
				base, err := ftpm.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cfg = ablationBase(2 * time.Second)
				cfg.NewProgram = func(rank, size int) mpi.Program { return nas.NewBTModel(class, rank, size) }
				cfg.Failures = failure.Plan{{At: base.Completion / 2, Rank: 3}}
				res, err := ftpm.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric((res.Completion - base.Completion).Seconds(), "recoveryCost-s")
			}
		})
	}
}
