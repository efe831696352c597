// Command figures regenerates the data behind every figure of the paper's
// evaluation (Figs. 5–10 and the §5.4 NetPIPE characterization), printing
// the same rows/series the paper plots.
//
//	figures -fig 5          # one figure
//	figures -fig all -quick # smoke-test everything in seconds
//	figures -fig all -jobs 8
//
// Sweep points are independent simulations, so -jobs N (default
// runtime.NumCPU()) runs them concurrently; stdout, -v trace output and
// -metrics-dir files are byte-identical for any -jobs value with the
// same seed.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"

	"ftckpt"
	"ftckpt/internal/expt"
	"ftckpt/internal/span"
)

func main() {
	log.SetFlags(0)
	var (
		fig    = flag.String("fig", "all", "figure to regenerate: 5, 6, 7, 8, 9, 10, netpipe, recovery, storage, all")
		quick  = flag.Bool("quick", false, "shrink workloads (~10x) — shapes survive, absolute values do not")
		seed   = flag.Int64("seed", 1, "simulation seed")
		v      = flag.Bool("v", false, "trace per-run progress")
		jobs   = flag.Int("jobs", runtime.NumCPU(), "concurrent sweep points per figure (1 = sequential; output is identical either way)")
		metDir = flag.String("metrics-dir", "", "also write each figure's aggregated metrics as <dir>/fig<N>.metrics.json")
		attrib = flag.Bool("attrib", false, "trace causal spans and append each figure's merged per-phase overhead attribution")
	)
	flag.Parse()
	// The flag package stops at the first non-flag word: `figures 5` (a
	// forgotten -fig) would otherwise regenerate every figure.
	if flag.NArg() > 0 {
		usageError(fmt.Errorf("unexpected argument %q (select a figure with -fig)", flag.Arg(0)))
	}
	if *jobs < 0 {
		usageError(fmt.Errorf("-jobs %d: must be >= 0 (0 = one per CPU)", *jobs))
	}

	o := expt.Options{Quick: *quick, Seed: *seed, Jobs: *jobs}
	if *v {
		o.Trace = log.Printf
	}

	runners := map[string]func(expt.Options) error{
		"5":        fig5,
		"6":        fig6,
		"7":        fig7,
		"8":        fig8,
		"9":        fig9,
		"10":       fig10,
		"netpipe":  netpipe,
		"recovery": recovery,
		"storage":  storage,
	}
	order := []string{"netpipe", "5", "6", "7", "8", "9", "10", "recovery", "storage"}

	var names []string
	if *fig == "all" {
		names = order
	} else {
		if _, ok := runners[*fig]; !ok {
			usageError(fmt.Errorf("-fig %q: unknown figure", *fig))
		}
		names = []string{*fig}
	}

	// runOne regenerates one figure; with -metrics-dir every run of the
	// figure folds into one fresh registry, dumped beside the data once
	// the whole sweep has succeeded (atomically: temp file + rename, so a
	// failed or interrupted figure never leaves a partial file behind).
	runOne := func(name string) error {
		if *metDir != "" {
			o.Metrics = ftckpt.NewMetrics()
		}
		if *attrib {
			o.Attrib = &span.Attribution{}
		}
		if err := runners[name](o); err != nil {
			return err
		}
		// The attribution accumulator merged every run of the figure in
		// point order; a zero completion means the figure ran no simulated
		// jobs (netpipe), so there is nothing to attribute.
		if *attrib && o.Attrib.Completion > 0 {
			if err := o.Attrib.Check(); err != nil {
				return fmt.Errorf("fig %s attribution conservation: %w", name, err)
			}
			fmt.Printf("\n-- overhead attribution, merged across the figure's sweep points --\n")
			if err := o.Attrib.WriteTable(os.Stdout); err != nil {
				return err
			}
		}
		if *metDir == "" {
			return nil
		}
		base := name
		if name != "netpipe" {
			base = "fig" + name
		}
		path, err := writeMetrics(*metDir, base, o.Metrics)
		if err == nil {
			fmt.Printf("metrics: %s\n", path)
		}
		return err
	}

	for _, name := range names {
		if err := runOne(name); err != nil {
			fail(err)
		}
	}
}

// writeMetrics dumps a figure's registry as <dir>/<base>.metrics.json,
// atomically: the JSON is written to a temp file in the same directory
// and renamed into place, so readers never observe a partial file.  The
// directory is created on first use (not before any run has succeeded).
func writeMetrics(dir, base string, m *ftckpt.Metrics) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".metrics.json")
	tmp, err := os.CreateTemp(dir, base+".metrics.*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if err := m.WriteJSON(tmp); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return path, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}

// usageError reports a bad command line: exit 2, like the flag package
// and ftrun, before any simulation starts.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(2)
}

func table(header string) (*tabwriter.Writer, func()) {
	fmt.Println()
	fmt.Println(header)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	return w, func() { w.Flush() }
}

func fig5(o expt.Options) error {
	rows, err := expt.Fig5(o)
	if err != nil {
		return err
	}
	w, done := table("== Fig. 5: checkpoint servers — BT.B, 64 processes, 30s between waves ==")
	defer done()
	fmt.Fprintln(w, "servers\tpcl time\tpcl waves\tvcl time\tvcl waves")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%s\t%d\t%s\t%d\n",
			r.Servers, expt.FmtTime(r.PclTime), r.PclWaves, expt.FmtTime(r.VclTime), r.VclWaves)
	}
	return nil
}

func fig6(o expt.Options) error {
	rows, err := expt.Fig6(o)
	if err != nil {
		return err
	}
	w, done := table("== Fig. 6: execution time vs process count, four checkpoint frequencies — BT.B, 9 servers ==")
	defer done()
	fmt.Fprintln(w, "interval\tnp\tppn\tno-ckpt\tpcl\tpcl waves\tvcl\tvcl waves")
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%d\t%d\t%s\t%s\t%d\t%s\t%d\n",
			r.Interval, r.NP, r.PPN, expt.FmtTime(r.None),
			expt.FmtTime(r.Pcl), r.PclWaves, expt.FmtTime(r.Vcl), r.VclWaves)
	}
	return nil
}

func fig7(o expt.Options) error {
	rows, err := expt.Fig7(o)
	if err != nil {
		return err
	}
	w, done := table("== Fig. 7: checkpoint waves on a high-speed network — CG.C, 64 processes, Myrinet, 2 servers ==")
	defer done()
	fmt.Fprintln(w, "stack\tinterval\twaves\ttime")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%d\t%s\n", r.Stack, r.Interval, r.Waves, expt.FmtTime(r.Time))
	}
	return nil
}

func fig8(o expt.Options) error {
	rows, err := expt.Fig8(o)
	if err != nil {
		return err
	}
	w, done := table("== Fig. 8: system size vs checkpoint waves — CG.C, Pcl/Nemesis on Myrinet ==")
	defer done()
	fmt.Fprintln(w, "np\tppn\tinterval\twaves\ttime")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%v\t%d\t%s\n", r.NP, r.PPN, r.Interval, r.Waves, expt.FmtTime(r.Time))
	}
	return nil
}

func fig9(o expt.Options) error {
	rows, err := expt.Fig9(o)
	if err != nil {
		return err
	}
	w, done := table("== Fig. 9: checkpoint frequency at large scale — BT.B, 400 processes on the grid, Pcl ==")
	defer done()
	fmt.Fprintln(w, "interval\twaves\ttime")
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%d\t%s\n", r.Interval, r.Waves, expt.FmtTime(r.Time))
	}
	return nil
}

func fig10(o expt.Options) error {
	rows, err := expt.Fig10(o)
	if err != nil {
		return err
	}
	w, done := table("== Fig. 10: large scale on the grid — BT.B, Pcl, no-ckpt vs periodic waves ==")
	defer done()
	fmt.Fprintln(w, "np\tno-ckpt\twith waves\twaves")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\n", r.NP, expt.FmtTime(r.NoCkpt), expt.FmtTime(r.Ckpt60), r.Waves)
	}
	return nil
}

func recovery(o expt.Options) error {
	rows, err := expt.Recovery(o)
	if err != nil {
		return err
	}
	w, done := table("== Recovery modes: rollback-restart vs ULFM in-job repair — Jacobi, 16 processes, Pcl ==")
	defer done()
	fmt.Fprintln(w, "kills\trestart time\trestarts\tulfm time\trepairs\tulfm restarts\tlost work\trecovered")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%s\t%d\t%s\t%d\t%d\t%v\t%.4f\n",
			r.Kills, expt.FmtTime(r.RestartTime), r.Restarts, expt.FmtTime(r.UlfmTime),
			r.Repairs, r.UlfmRestarts, r.LostWork, r.RecoveredWork)
	}
	return nil
}

func storage(o expt.Options) error {
	study, err := expt.Storage(o)
	if err != nil {
		return err
	}
	w, done := table("== Storage hierarchy: optimal checkpoint interval per level — CG, 16 processes, Pcl ==")
	fmt.Fprintln(w, "config\tcost C\tsystem MTBF\tyoung\tdaly\tsim best\tbest time")
	for _, r := range study.Opt {
		fmt.Fprintf(w, "%s\t%v\t%v\t%v\t%v\t%v\t%s\n",
			r.Config, r.Cost, r.MTTF, r.Young, r.Daly, r.Best, expt.FmtTime(r.BestTime))
	}
	done()
	w, done = table("== Storage hierarchy: level saturation at the simulated-optimal interval ==")
	defer done()
	fmt.Fprintln(w, "config\tlevel\tMB\tcapacity MB/s\tutil")
	for _, r := range study.Sat {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.4f\n",
			r.Config, r.Level, r.MB, r.Capacity, r.Util)
	}
	return nil
}

func netpipe(o expt.Options) error {
	rows, err := expt.Netpipe(o)
	if err != nil {
		return err
	}
	w, done := table("== NetPIPE (§5.4): intra- vs inter-cluster characterization of the grid ==")
	fmt.Fprintln(w, "size\tintra lat\tinter lat\tintra MB/s\tinter MB/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%v\t%v\t%.1f\t%.1f\n", r.Size, r.IntraRTT, r.InterRTT, r.IntraBW, r.InterBW)
	}
	done()
	first, last := rows[0], rows[len(rows)-1]
	fmt.Printf("latency ratio (inter/intra):   %.0fx\n", float64(first.InterRTT)/float64(first.IntraRTT))
	fmt.Printf("bandwidth ratio (intra/inter): %.1fx\n", last.IntraBW/last.InterBW)
	return nil
}
