package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// run executes the built binary in a fresh directory and returns its exit
// status, stdout and stderr.
func run(t *testing.T, bin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = t.TempDir()
	var o, e strings.Builder
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("figures %v: %v", args, err)
	}
	return code, o.String(), e.String()
}

// TestCommandLine runs the built binary: a command line figures refuses
// must exit 2 before any simulation, naming the flag or argument; the
// cheapest figure must print its table and, with -metrics-dir, leave one
// complete metrics file behind.
func TestCommandLine(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "figures")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name  string
		args  []string
		names string // substring of stderr
	}{
		{"unknown figure", []string{"-fig", "11"}, `-fig "11"`},
		{"positional argument", []string{"5"}, `unexpected argument "5"`},
		{"negative jobs", []string{"-fig", "netpipe", "-quick", "-jobs", "-1"}, "-jobs -1"},
		// The superseded perf ledger's flags are gone (bench/ replaces it).
		{"bench-core is gone", []string{"-bench-core", "x.json"}, "not defined: -bench-core"},
		{"bench-core-np is gone", []string{"-bench-core-np", "64"}, "not defined: -bench-core-np"},
		{"bench-core-check is gone", []string{"-bench-core-check", "x.json"}, "not defined: -bench-core-check"},
		{"bench-sweep is gone", []string{"-bench-sweep", "x.json"}, "not defined: -bench-sweep"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := run(t, bin, tc.args...)
			if code != 2 {
				t.Fatalf("figures %v: exit status %d, want 2\n%s", tc.args, code, stderr)
			}
			if !strings.Contains(stderr, tc.names) {
				t.Errorf("figures %v: stderr does not name %q:\n%s", tc.args, tc.names, stderr)
			}
			if stdout != "" {
				t.Errorf("figures %v: printed before refusing:\n%s", tc.args, stdout)
			}
		})
	}

	t.Run("netpipe", func(t *testing.T) {
		code, stdout, stderr := run(t, bin, "-fig", "netpipe", "-quick")
		if code != 0 {
			t.Fatalf("exit status %d\n%s", code, stderr)
		}
		if !strings.Contains(stdout, "== NetPIPE") || strings.Count(stdout, "\n") < 4 {
			t.Errorf("no NetPIPE table on stdout:\n%s", stdout)
		}
		for _, ratio := range []string{"latency ratio (inter/intra):", "bandwidth ratio (intra/inter):"} {
			if !strings.Contains(stdout, ratio) {
				t.Errorf("no %q line on stdout:\n%s", ratio, stdout)
			}
		}
	})

	t.Run("metrics-dir", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "m")
		if code, _, stderr := run(t, bin, "-fig", "netpipe", "-quick", "-metrics-dir", dir); code != 0 {
			t.Fatalf("exit status %d\n%s", code, stderr)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 1 || files[0].Name() != "netpipe.metrics.json" {
			t.Fatalf("-metrics-dir holds %v, want only netpipe.metrics.json", files)
		}
		b, err := os.ReadFile(filepath.Join(dir, "netpipe.metrics.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(b) {
			t.Errorf("netpipe.metrics.json is not valid JSON:\n%s", b)
		}
	})
}
