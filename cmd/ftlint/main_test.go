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

// run executes the built binary in dir and returns its exit status,
// stdout and stderr.
func run(t *testing.T, bin, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var o, e strings.Builder
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("ftlint %v: %v", args, err)
	}
	return code, o.String(), e.String()
}

// TestCommandLine runs the built binary: exit 0 on a clean package, exit
// 1 with one -json record naming file, line and analyzer on a violation,
// exit 2 on a command line ftlint refuses.
func TestCommandLine(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ftlint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	repo, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("clean", func(t *testing.T) {
		code, stdout, stderr := run(t, bin, repo, "./internal/sim")
		if code != 0 || stdout != "" {
			t.Fatalf("exit status %d, want 0 and no output\n%s%s", code, stdout, stderr)
		}
	})

	t.Run("violation", func(t *testing.T) {
		// A module of its own whose sim/ package reads the wall clock: the
		// directory name is what opts it into the simulation-package rules.
		mod := t.TempDir()
		src := "package sim\n\nimport \"time\"\n\nfunc Now() time.Time { return time.Now() }\n"
		if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module lintdemo\n\ngo 1.21\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(mod, "sim"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(mod, "sim", "sim.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := run(t, bin, mod, "-json", "./...")
		if code != 1 {
			t.Fatalf("exit status %d, want 1\n%s%s", code, stdout, stderr)
		}
		var recs []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
		}
		if err := json.Unmarshal([]byte(stdout), &recs); err != nil {
			t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
		}
		if len(recs) != 1 {
			t.Fatalf("%d records, want 1:\n%s", len(recs), stdout)
		}
		if r := recs[0]; filepath.Base(r.File) != "sim.go" || r.Line != 5 || r.Analyzer != "nodeterm" {
			t.Errorf("record %+v, want sim.go:5 from nodeterm", r)
		}
	})

	for _, tc := range []struct {
		name  string
		args  []string
		names string // substring of stderr
	}{
		// The flow layer's analyzers and the fixer are gone.
		{"only spanbalance is gone", []string{"-only", "spanbalance", "./internal/sim"}, `-only "spanbalance" matches no analyzer`},
		{"fix is gone", []string{"-fix", "./internal/sim"}, "not defined: -fix"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := run(t, bin, repo, tc.args...)
			if code != 2 {
				t.Fatalf("ftlint %v: exit status %d, want 2\n%s", tc.args, code, stderr)
			}
			if !strings.Contains(stderr, tc.names) {
				t.Errorf("ftlint %v: stderr does not name %q:\n%s", tc.args, tc.names, stderr)
			}
			if stdout != "" {
				t.Errorf("ftlint %v: printed before refusing:\n%s", tc.args, stdout)
			}
		})
	}
}
