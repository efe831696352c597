// Command ftlint runs the repository's static-analysis suite — the
// determinism and pooling invariants documented in DESIGN §5.8 — over Go
// package patterns and exits non-zero if any diagnostic is reported.
//
// Usage:
//
//	go run ./cmd/ftlint ./...
//	go run ./cmd/ftlint -json ./internal/sim ./internal/simnet
//	go run ./cmd/ftlint -only mapiter ./...
//
// Must run with the working directory inside the module (import
// resolution shells out to `go list` for module paths).  -json emits a
// machine-readable diagnostic array (file/line/col/analyzer/message) for
// CI annotations; the exit status is 1 whenever diagnostics exist in
// either mode.  -tests includes in-package _test.go files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ftckpt/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON (file/line/col/analyzer/message)")
	includeTests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := analysis.All()
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				filtered = append(filtered, a)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "ftlint: -only %q matches no analyzer\n", *only)
			os.Exit(2)
		}
		analyzers = filtered
	}

	loader := analysis.NewLoader()
	loader.IncludeTests = *includeTests
	pkgs, err := loader.Load(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftlint: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		type diagJSON struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]diagJSON, len(diags))
		for i, d := range diags {
			out[i] = diagJSON{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "ftlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "ftlint: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}
