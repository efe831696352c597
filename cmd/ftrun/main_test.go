package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
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

// TestDegradedChaosTrace runs the built binary through a chaos campaign
// that ends in a degraded stop: -trace-out must still leave a document
// that parses, shows the stop, and gives every span a duration ≥ 0.
func TestDegradedChaosTrace(t *testing.T) {
	bin := buildFtrun(t)
	path := filepath.Join(t.TempDir(), "trace.json")
	out, err := exec.Command(bin, "-bench", "cg-real", "-np", "8", "-proto", "pcl", "-interval", "5ms",
		"-servers", "2", "-chaos", "3", "-chaos-seed", "4", "-chaos-server-frac", "0.5",
		"-chaos-from", "8ms", "-chaos-until", "40ms", "-trace-out", path).CombinedOutput()
	if err != nil {
		t.Fatalf("ftrun: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "degraded stop") {
		t.Fatalf("the campaign no longer ends in a degraded stop:\n%s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string   `json:"ph"`
			Name string   `json:"name"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace of a degraded run does not parse: %v", err)
	}
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
