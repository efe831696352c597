package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ftckpt"
)

func TestParseStorageLevels(t *testing.T) {
	good := []struct {
		spec string
		want []ftckpt.LevelSpec
	}{
		{"servers:2", []ftckpt.LevelSpec{{Kind: ftckpt.LevelServers, Servers: 2}}},
		{"buffer,servers:2x2", []ftckpt.LevelSpec{
			{Kind: ftckpt.LevelBuffer},
			{Kind: ftckpt.LevelServers, Servers: 2, Replicas: 2},
		}},
		{" buffer , servers:3x2 , pfs:4x2 ", []ftckpt.LevelSpec{
			{Kind: ftckpt.LevelBuffer},
			{Kind: ftckpt.LevelServers, Servers: 3, Replicas: 2},
			{Kind: ftckpt.LevelPFS, Targets: 4, Stripes: 2},
		}},
		{"servers:1,pfs", []ftckpt.LevelSpec{
			{Kind: ftckpt.LevelServers, Servers: 1},
			{Kind: ftckpt.LevelPFS},
		}},
	}
	for _, tc := range good {
		spec, err := parseStorageLevels(tc.spec)
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(spec.Levels, tc.want) {
			t.Errorf("%q: levels %+v, want %+v", tc.spec, spec.Levels, tc.want)
		}
	}
	// Each malformed spec must be refused, naming the offending part.
	bad := []struct{ spec, names string }{
		{"", `""`},
		{"buffer,", `""`},
		{"disk", `"disk"`},
		{"buffer:2", `"buffer:2"`},
		{"servers", `"servers"`},
		{"servers:", `""`},
		{"servers:two", `"two"`},
		{"servers:2x", `""`},
		{"servers:2xtwo", `"two"`},
		{"pfs:x2", `""`},
		{"buffer,servers:2x2,tape:1", `"tape:1"`},
	}
	for _, tc := range bad {
		spec, err := parseStorageLevels(tc.spec)
		if err == nil {
			t.Errorf("%q: accepted as %+v", tc.spec, spec.Levels)
			continue
		}
		if !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%q: error %q does not name %s", tc.spec, err, tc.names)
		}
	}
}

// buildFtrun builds the command into a temporary directory.
func buildFtrun(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ftrun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFlagValidationExitCodes runs the built binary: a flag combination
// ftrun refuses must exit 2, before any simulation, with a message that
// names the flags involved; a configuration the library rejects exits 1
// naming the field.
func TestFlagValidationExitCodes(t *testing.T) {
	bin := buildFtrun(t)
	for _, tc := range []struct {
		name  string
		args  []string
		names []string // substrings of stderr
		exit  int      // 0 means 2, the usage-error status
	}{
		{"storage-levels with servers",
			[]string{"-storage-levels", "buffer,servers:2x2", "-servers", "3"},
			[]string{"-servers", "-storage-levels"}, 0},
		{"storage-levels malformed",
			[]string{"-storage-levels", "buffer,servers"},
			[]string{"-storage-levels", `"servers"`}, 0},
		{"incremental without storage-levels",
			[]string{"-incremental"},
			[]string{"-incremental", "-storage-levels"}, 0},
		{"compress without storage-levels",
			[]string{"-compress"},
			[]string{"-compress", "-storage-levels"}, 0},
		{"stats with chaos",
			[]string{"-proto", "pcl", "-chaos", "2", "-stats", "-trace-out", "t.json"},
			[]string{"-stats", "-chaos"}, 0},
		{"shards is gone",
			[]string{"-shards", "2"},
			[]string{"not defined: -shards"}, 0},
		// The name is split so that a search of the tree for the deleted
		// flag comes back empty.
		{"stream trace is gone",
			[]string{"-stream" + "-trace"},
			[]string{"not defined: -stream" + "-trace"}, 0},
		{"positional argument",
			[]string{"-bench", "cg-real", "-np", "4", "-proto", "pcl", "-interval", "5ms", "stray"},
			[]string{`unexpected argument "stray"`}, 0},
		{"fail-rank without fail-at",
			[]string{"-bench", "jacobi", "-np", "8", "-proto", "pcl", "-interval", "25ms", "-fail-rank", "3"},
			[]string{"-fail-rank", "-fail-at"}, 0},
		{"fail-rank past the job",
			[]string{"-bench", "jacobi", "-np", "8", "-proto", "pcl", "-interval", "25ms", "-fail-at", "40ms", "-fail-rank", "8"},
			[]string{"Failures[0].Rank"}, 1},
		{"ep is not a workload",
			[]string{"-bench", "ep", "-np", "4"},
			[]string{"Workload"}, 1},
		{"negative ppn",
			[]string{"-np", "4", "-ppn", "-1"},
			[]string{"ProcsPerNode"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			cmd.Dir = t.TempDir()
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			want := tc.exit
			if want == 0 {
				want = 2
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != want {
				t.Fatalf("ftrun %v: %v, want exit status %d\n%s", tc.args, err, want, stderr.String())
			}
			for _, s := range tc.names {
				if !strings.Contains(stderr.String(), s) {
					t.Errorf("ftrun %v: stderr does not name %q:\n%s", tc.args, s, stderr.String())
				}
			}
			if files, _ := os.ReadDir(cmd.Dir); len(files) != 0 {
				t.Errorf("ftrun %v left %d file(s) behind", tc.args, len(files))
			}
		})
	}
}

// eventLine is one line of the -v stream: virtual ns, type, six signed
// fields (rank, wave, channel, node, server, level), four unsigned ones
// (bytes, seq, span, cause) and, on a counter sample, the metric name.
var eventLine = regexp.MustCompile(`^[0-9]+ [a-z]+(-[a-z]+)*( -?[0-9]+){6}( [0-9]+){4}( [a-z0-9._]+)?$`)

// runStream runs the built binary and returns its stdout and its -v
// event lines, failing on a non-zero exit or on a stderr line that is
// not an event line.
func runStream(t *testing.T, bin string, args ...string) (stdout string, lines []string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("ftrun: %v\n%s%s", err, out, stderr.String())
	}
	lines = strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	for i, l := range lines {
		if !eventLine.MatchString(l) {
			t.Fatalf("stderr line %d is not an event line: %q", i+1, l)
		}
	}
	return string(out), lines
}

// hasEvent reports whether some line is an event of the named type.
func hasEvent(lines []string, kind string) bool {
	for _, l := range lines {
		if f := strings.Fields(l); f[1] == kind {
			return true
		}
	}
	return false
}

// traceDoc is the part of a -trace-out document the tests read.
type traceDoc struct {
	TraceEvents []struct {
		Ph   string   `json:"ph"`
		Name string   `json:"name"`
		Dur  *float64 `json:"dur"`
	} `json:"traceEvents"`
}

// parseTrace reads a -trace-out document.
func parseTrace(t *testing.T, path string) traceDoc {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	return doc
}

// TestVerboseEventStream runs the built binary with -v and -trace-out
// together: stderr carries only event lines, the failure and the commits
// among them, two runs write the same bytes, and the trace still parses.
func TestVerboseEventStream(t *testing.T) {
	bin := buildFtrun(t)
	var streams [2][]string
	for i := range streams {
		path := filepath.Join(t.TempDir(), "trace.json")
		_, streams[i] = runStream(t, bin, "-bench", "cg-real", "-np", "8", "-proto", "pcl",
			"-interval", "5ms", "-fail-at", "20ms", "-fail-rank", "3", "-v", "-trace-out", path)
		if doc := parseTrace(t, path); len(doc.TraceEvents) == 0 {
			t.Fatalf("run %d: the trace has no records", i)
		}
	}
	for _, kind := range []string{"rank-killed", "wave-commit"} {
		if !hasEvent(streams[0], kind) {
			t.Errorf("the stream has no %s line", kind)
		}
	}
	if !reflect.DeepEqual(streams[0], streams[1]) {
		t.Errorf("two runs wrote different streams (%d vs %d lines)", len(streams[0]), len(streams[1]))
	}
}

// TestDegradedChaosTrace runs the built binary through a chaos campaign
// that ends in a degraded stop: -trace-out must still leave a document
// that parses, shows the stop, and gives every span a duration ≥ 0, and
// the -v stream must reach its degraded line.
func TestDegradedChaosTrace(t *testing.T) {
	bin := buildFtrun(t)
	path := filepath.Join(t.TempDir(), "trace.json")
	out, lines := runStream(t, bin, "-bench", "cg-real", "-np", "8", "-proto", "pcl", "-interval", "5ms",
		"-servers", "2", "-chaos", "3", "-chaos-seed", "4", "-chaos-server-frac", "0.5",
		"-chaos-from", "8ms", "-chaos-until", "40ms", "-trace-out", path, "-v")
	if !strings.Contains(out, "degraded stop") {
		t.Fatalf("the campaign no longer ends in a degraded stop:\n%s", out)
	}
	if !hasEvent(lines, "degraded") {
		t.Errorf("the -v stream of a degraded run has no degraded line")
	}
	doc := parseTrace(t, path)
	var spans, stops int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X":
			spans++
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("span %q has no duration or a negative one", ev.Name)
			}
		case ev.Name == "degraded stop":
			stops++
		}
	}
	if spans == 0 || stops != 1 {
		t.Errorf("%d spans and %d degraded-stop instants, want some and 1", spans, stops)
	}
}

// TestStatsLine runs the built binary with -stats: stderr is the one kernel
// line, and its LP resumes per message are the resumes over the messages of
// the traffic line.
func TestStatsLine(t *testing.T) {
	bin := buildFtrun(t)
	cmd := exec.Command(bin, "-bench", "cg-real", "-np", "4", "-proto", "pcl", "-interval", "5ms", "-stats")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("ftrun: %v\n%s%s", err, out, stderr.String())
	}
	kernel := regexp.MustCompile(`^kernel +[0-9]+ events scheduled, [0-9]+ fired, [0-9]+ cancelled; ([0-9]+) LP resumes \(([0-9.]+) per message\); high water: heap [0-9]+, slab [0-9]+, lanes [0-9]+\n$`)
	k := kernel.FindStringSubmatch(stderr.String())
	m := regexp.MustCompile(`(?m)^traffic +([0-9]+) messages`).FindSubmatch(out)
	if k == nil || m == nil {
		t.Fatalf("no kernel line with LP resumes or no traffic line:\n%s%s", stderr.String(), out)
	}
	resumes, _ := strconv.ParseFloat(k[1], 64)
	msgs, _ := strconv.ParseFloat(string(m[1]), 64)
	if want := fmt.Sprintf("%.2f", resumes/msgs); resumes == 0 || k[2] != want {
		t.Errorf("%s LP resumes, %s per message for %s messages; want %s", k[1], k[2], m[1], want)
	}
}
