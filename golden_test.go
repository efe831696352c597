package ftckpt

// Golden tests over the rows of scenario_test.go: a seed fully determines
// a run, byte for byte, and the pinned rows match testdata/golden_pinned.json
// (amd64: the hashes cover float formatting).  A PR that means to change
// simulation output re-records it with `go test -run TestGoldenPinned
// -update .` and says so in CHANGES.md.  To see which event moved, run
// `go test -run '^TestGoldenPinned$' -events-dir DIR .` at both commits and
// `diff -u OLD/<scenario>.events NEW/<scenario>.events`.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ftckpt/internal/failure"
)

var (
	updatePinned = flag.Bool("update", false, "rewrite testdata/golden_pinned.json from this run")
	eventsDir    = flag.String("events-dir", "", "write each pinned scenario's event line stream to DIR/<name>.events")
)

const pinnedPath = "testdata/golden_pinned.json"

// pinnedHashes is one scenario's entry in the pinned file, fields in the
// file's key order.
type pinnedHashes struct {
	Events      string `json:"events"`
	Report      string `json:"report"`
	Metrics     string `json:"metrics"`
	Trace       string `json:"trace"`
	Attribution string `json:"attribution,omitempty"` // rows with Options.Attribution
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// firstDivergence names the first line where a and b differ: its 1-based
// number, the five lines before it and both versions of it ("<end>" for a
// text that ended).  It returns "" when a and b are equal.
func firstDivergence(a, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	split := func(text []byte) []string { return strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") }
	la, lb := split(a), split(b)
	n := 0 // lines in common
	for n < len(la) && n < len(lb) && la[n] == lb[n] {
		n++
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "first difference at line %d:\n", n+1)
	for i := max(0, n-5); i < n; i++ {
		fmt.Fprintf(&sb, "  %d  %s\n", i+1, la[i])
	}
	line := func(l []string) string {
		if n < len(l) {
			return l[n]
		}
		return "<end>"
	}
	fmt.Fprintf(&sb, "- %d  %s\n+ %d  %s", n+1, line(la), n+1, line(lb))
	return sb.String()
}

// checkRow holds a row's first run to its post-conditions, recorded hashes
// and the row it must equal, then repeats it.  One test checks each row.
func checkRow(t *testing.T, name string) {
	r, sc := first(t, name), byName[name]
	if sc.post != nil {
		sc.post(t, r)
	}
	if h := pinned(r); sc.recorded != [3]string{} && runtime.GOARCH == "amd64" {
		if got := [3]string{h.Report, h.Metrics, h.Trace}; got != sc.recorded {
			t.Errorf("report/metrics/trace hashes %v, recorded %v", got, sc.recorded)
		}
	}
	if sc.same != "" {
		for _, d := range differences(first(t, sc.same), r) {
			t.Errorf("against %s: %s", sc.same, d)
		}
	}
	for i := 1; i <= sc.repeat; i++ {
		again, err := runScenario(sc)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if ds := differences(r, again); len(ds) > 0 {
			t.Fatalf("run %d differs from run 0: %s", i, strings.Join(ds, "\n"))
		}
	}
}

// forRows runs check on the rows fmt.Sprintf(pattern, label) as parallel
// subtests named label.
func forRows(t *testing.T, pattern string, check func(*testing.T, string), labels ...string) {
	for _, label := range labels {
		t.Run(label, func(t *testing.T) {
			t.Parallel()
			check(t, fmt.Sprintf(pattern, label))
		})
	}
}

// checkRows is a parallel test of checkRow on its rows.
func checkRows(t *testing.T, pattern string, labels ...string) {
	t.Parallel()
	forRows(t, pattern, checkRow, labels...)
}

// The determinism tests name their rows; what each row exercises is said
// at the row.
func TestGoldenDeterminism(t *testing.T)           { checkRows(t, "%s-16", "pcl", "vcl", "mlog") }
func TestGoldenDeterminismULFM(t *testing.T)       { checkRows(t, "ulfm-%s-8", "rank", "node", "vcl") }
func TestRestartedJacobiChecksum(t *testing.T)     { checkRows(t, "jacobi-%s-8", "mlog", "vcl") }
func TestGoldenDeterminismRepeat(t *testing.T)     { checkRows(t, "%s", "mlog-chaos", "snapshots") }
func TestSharedImageRestoredTwice(t *testing.T)    { checkRows(t, "shared-image-%s-8", "pcl", "vcl") }
func TestGoldenDeterminismReplicated(t *testing.T) { checkRows(t, "%s", "replicated-hb-8") }
func TestGoldenDeterminismGrid(t *testing.T)       { checkRows(t, "%s", "grid-vcl-16") }
func TestGoldenDeterminismStorage(t *testing.T)    { checkRows(t, "%s", "storage-hier-8") }
func TestGoldenStorageChaos(t *testing.T)          { checkRows(t, "%s", "storage-chaos-8") }

// TestServersShorthandIsOneLevel: Options.Servers is the same run as the
// one-level Storage it stands for, and the replicated tiers the deleted
// flat replication fields described keep their recorded output.
func TestServersShorthandIsOneLevel(t *testing.T) {
	checkRows(t, "%s-64-storage", "pcl", "vcl", "mlog")
	forRows(t, "%s", checkRow, "replicated-vcl-8", "replicated-mlog-8", "replicated-node-8", "grid-pcl-16-replicated")
}

// The post-conditions of the table.

func wantReport(want string) func(*testing.T, *result) {
	return func(t *testing.T, r *result) {
		if got := fmt.Sprintf("%+v", r.rep); got != want {
			t.Errorf("Report:\n  got      %s\n  recorded %s", got, want)
		}
	}
}

// repairedInJob: one in-job repair, no restart, and the run ended on
// jacobi-8's failure-free checksum.
func repairedInJob(t *testing.T, r *result) {
	if r.rep.Repairs != 1 || r.rep.Restarts != 0 || r.rep.RecoveredWork <= 0 || r.rep.RecoveredWork >= 1 {
		t.Errorf("Repairs %d, Restarts %d, RecoveredWork %v; want one in-job repair, no restart, RecoveredWork in (0, 1)",
			r.rep.Repairs, r.rep.Restarts, r.rep.RecoveredWork)
	}
	if base := first(t, "jacobi-8").rep.Checksum; r.rep.Checksum != base {
		t.Errorf("checksum %v, want jacobi-8's failure-free %v", r.rep.Checksum, base)
	}
}

// restartedJacobi: the run restarted and ended on jacobi-8's failure-free
// checksum.
func restartedJacobi(t *testing.T, r *result) {
	if base := first(t, "jacobi-8").rep.Checksum; r.rep.Restarts == 0 || r.rep.Checksum != base {
		t.Errorf("want a restart and checksum %v; got %+v", base, r.rep)
	}
}

// recovered: the run checkpointed, restarted and ended on cg-real-8's
// failure-free checksum.
func recovered(t *testing.T, r *result) {
	if base := first(t, "cg-real-8").rep.Checksum; r.rep.Waves == 0 || r.rep.Restarts == 0 || r.rep.Checksum != base {
		t.Errorf("want a restart from a committed wave and checksum %v; got %+v", base, r.rep)
	}
}

// restoredTwice: the levels share one image per (rank, wave) and a restore
// reads it in place; a restart that wrote through it would poison the
// second restore from the same wave.
func restoredTwice(t *testing.T, r *result) {
	var waves []string
	for _, line := range strings.Split(string(r.events), "\n") {
		if f := strings.Fields(line); len(f) > 3 && f[1] == EvRestartBegin.String() {
			waves = append(waves, f[3])
		}
	}
	if len(waves) != 2 || waves[0] == "0" || waves[0] != waves[1] {
		t.Fatalf("want two restarts from one committed wave, got waves %v", waves)
	}
	recovered(t, r)
}

// bufferThenRankKill: a rank dies after a staged copy was lost, and every
// recovery invariant holds.
func bufferThenRankKill(t *testing.T, r *result) {
	buffer, exercised := false, false // the plan is in execution order
	for _, ev := range r.chaos.Plan {
		buffer = buffer || ev.Kind == failure.KindBuffer
		exercised = exercised || buffer && ev.Kind == failure.KindRank
	}
	c := r.chaos
	if !exercised || !c.OK() || c.Degraded == nil && (c.Checksum == 0 || c.Checksum != c.Reference) {
		t.Fatalf("want a rank kill after a buffer kill, no violation and the reference checksum; got %+v", *c)
	}
}

func pinned(r *result) pinnedHashes {
	h := pinnedHashes{sha(r.events), sha([]byte(fmt.Sprintf("%+v", r.rep))), sha(r.metrics), r.traceSHA, ""}
	if r.attrib != nil {
		h.Attribution = sha(r.attrib)
	}
	return h
}

func readPinned(t *testing.T) map[string]pinnedHashes {
	var pinned map[string]pinnedHashes
	b, err := os.ReadFile(pinnedPath)
	if err == nil {
		err = json.Unmarshal(b, &pinned)
	}
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	return pinned
}

func TestGoldenPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes are pinned for amd64, not %s", runtime.GOARCH)
	}
	t.Parallel()
	var want map[string]pinnedHashes
	if !*updatePinned {
		want = readPinned(t)
	}
	if *eventsDir != "" {
		if err := os.MkdirAll(*eventsDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { // after every row's subtest; first returns the kept runs
		if *updatePinned && !t.Failed() {
			got := map[string]pinnedHashes{}
			for _, sc := range scenarios {
				if sc.pinned {
					got[sc.name] = pinned(first(t, sc.name))
				}
			}
			b, _ := json.MarshalIndent(got, "", "  ")
			if err := os.WriteFile(pinnedPath, append(b, '\n'), 0o644); err != nil {
				t.Error(err)
			}
		}
	})
	for _, sc := range scenarios {
		if !sc.pinned {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			r := first(t, sc.name)
			if *eventsDir != "" {
				if err := os.WriteFile(filepath.Join(*eventsDir, sc.name+".events"), r.events, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if h := pinned(r); !*updatePinned && h != want[sc.name] {
				t.Errorf("output differs from the pinned commit:\n  got  %+v\n  want %+v\nfor the first differing "+
					"event, run `go test -run '^TestGoldenPinned$' -events-dir DIR .` here and at the pinned "+
					"commit, then `diff -u OLD/%[3]s.events NEW/%[3]s.events`", h, want[sc.name], sc.name)
			}
		})
	}
}

// TestFirstDivergenceNamesTheEvent: the streams of replicated-hb-8 and its
// -late twin agree up to the earlier rank kill, and firstDivergence names
// that line, its number and both versions of it.
func TestFirstDivergenceNamesTheEvent(t *testing.T) {
	t.Parallel()
	a, b := first(t, "replicated-hb-8").events, first(t, "replicated-hb-8-late").events
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	n := 0
	for n < len(la) && n < len(lb) && la[n] == lb[n] {
		n++
	}
	if !strings.HasPrefix(la[n], "17000000 component-dead 3 ") {
		t.Fatalf("the streams part at line %d, %q, not at the 17 ms kill", n+1, la[n])
	}
	d := firstDivergence(a, b)
	for _, want := range []string{
		fmt.Sprintf("first difference at line %d:\n", n+1),
		fmt.Sprintf("\n  %d  %s\n", n, la[n-1]),
		fmt.Sprintf("\n- %d  %s\n", n+1, la[n]),
		fmt.Sprintf("\n+ %d  %s", n+1, lb[n]),
	} {
		if !strings.Contains(d, want) {
			t.Errorf("firstDivergence lacks %q:\n%s", want, d)
		}
	}
	if firstDivergence(a, a) != "" {
		t.Error("firstDivergence reports a difference between equal streams")
	}
}

// TestGoldenDeterminismChaosSweep sweeps the four replicated rows at Jobs 4
// (GOMAXPROCS above 1, so that under -race the points really run in
// parallel; hence a serial test) and wants every point equal to the row's
// own run and the merged registry equal to the rows' registries merged in
// point order: no worker interleaving or shared-registry write may leak.
func TestGoldenDeterminismChaosSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	names := []string{"replicated-hb-8", "replicated-vcl-8", "replicated-mlog-8", "replicated-node-8"}
	points := make([]Options, len(names))
	finish := make([]func(Report) (*result, error), len(names))
	for i, name := range names {
		points[i] = byName[name].opts
		finish[i] = attach(&points[i])
	}
	merged, want := NewMetrics(), NewMetrics()
	reps, err := Sweep(points, SweepOptions{Jobs: 4, Metrics: merged})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	for i, name := range names {
		got, err := finish[i](reps[i])
		if err != nil {
			t.Fatal(err)
		}
		r := first(t, name)
		for _, d := range differences(r, got) {
			t.Errorf("point %d (%s) against its own run: %s", i, name, d)
		}
		want.Merge(r.reg)
	}
	var a, b bytes.Buffer
	if err := errors.Join(want.WriteJSON(&a), merged.WriteJSON(&b)); err != nil {
		t.Fatal(err)
	}
	if d := firstDivergence(a.Bytes(), b.Bytes()); d != "" {
		t.Errorf("merged metrics JSON differs from the rows' merged in order, %s", d)
	}
}
