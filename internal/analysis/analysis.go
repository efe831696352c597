// Package analysis implements ftlint, the repository's static-analysis
// suite.  Four analyzers encode the house invariants that the golden
// byte-identity tests can only check dynamically:
//
//   - nodeterm: simulation packages must not read wall-clock time or
//     ambient randomness — all time comes from the sim kernel's virtual
//     clock and all randomness from sim.Kernel.Rand() or an explicitly
//     seeded rand.New.
//   - mapiter: a `for range` over a map must not feed order-sensitive
//     sinks (returned slices, obs events/metrics, kernel scheduling)
//     unless the result is totally ordered afterwards or the site is
//     waived with //ftlint:ordered.
//   - poolescape: pointers to //ftlint:pooled types (recycled slab and
//     record objects) must not be stored into struct fields or package
//     variables that outlive the release back to the pool, except into
//     fields marked //ftlint:pool (the pool's own storage).
//   - metricowner: the obs.Metrics registry is single-writer; a metric
//     name literal must not be mutated from more than one
//     goroutine-spawning scope.
//
// The driver deliberately mirrors the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Reportf, analysistest-style fixtures with // want
// comments) but is built on the standard library's go/ast, go/parser and
// go/types only: the container this repository builds in has no module
// proxy access, so the x/tools dependency is gated out.  Migrating to the
// real multichecker later is a mechanical substitution — the analyzer
// bodies already speak its vocabulary.
//
// Waiver directives, checked at the diagnostic's line or the line above:
//
//	//ftlint:allow <analyzer>[,<analyzer>...]   suppress named analyzers
//	//ftlint:ordered                            mapiter: order proven total
//
// Marker directives, attached to declarations:
//
//	//ftlint:pooled   (type doc)   values of this type are pool-recycled
//	//ftlint:pool     (field/var)  sanctioned holder of pooled pointers
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.  Run inspects a single package
// through its Pass and reports diagnostics; it returns an error only for
// infrastructure failures, never for findings.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// A Pass connects an Analyzer to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Markers is the directive table collected over every package in the
	// load, so pooled types declared in internal/sim are known when
	// analyzing internal/ckpt.
	Markers *Markers

	// waivers maps file name -> line -> directive payloads
	// ("allow nodeterm,mapiter", "ordered") present on that line.
	waivers map[string]map[int][]string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a waiver directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.waivedAt(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// waivedAt reports whether a directive on the position's line or the line
// above suppresses this pass's analyzer: //ftlint:allow naming it, or
// //ftlint:ordered for mapiter.
func (p *Pass) waivedAt(position token.Position) bool {
	lines := p.waivers[position.Filename]
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, payload := range lines[line] {
			if payload == "ordered" && p.Analyzer.Name == "mapiter" {
				return true
			}
			rest, ok := strings.CutPrefix(payload, "allow")
			if !ok {
				continue
			}
			for _, name := range strings.Split(rest, ",") {
				if strings.TrimSpace(name) == p.Analyzer.Name {
					return true
				}
			}
		}
	}
	return false
}

// directivePrefix introduces every ftlint comment directive.
const directivePrefix = "//ftlint:"

// collectWaivers builds the file/line directive index for one package.
func collectWaivers(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	out := make(map[string]map[int][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				payload, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				// Trailing commentary after the directive ("//ftlint:ordered
				// // keys sorted above") is not part of the payload.
				if i := strings.Index(payload, "//"); i >= 0 {
					payload = payload[:i]
				}
				position := fset.Position(c.Pos())
				lines := out[position.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					out[position.Filename] = lines
				}
				lines[position.Line] = append(lines[position.Line], strings.TrimSpace(payload))
			}
		}
	}
	return out
}

// Markers is the cross-package table of //ftlint:pooled and //ftlint:pool
// declarations.  Keys are position-independent so that the same type is
// recognized whether it was type-checked by the driver or re-checked as a
// dependency: "pkgpath.Type" for pooled types, "pkgpath.Type.Field" for
// sanctioned pool fields and "pkgpath.var" for sanctioned pool variables.
type Markers struct {
	PooledTypes map[string]bool
	PoolFields  map[string]bool
	PoolVars    map[string]bool
}

func newMarkers() *Markers {
	return &Markers{
		PooledTypes: make(map[string]bool),
		PoolFields:  make(map[string]bool),
		PoolVars:    make(map[string]bool),
	}
}

// hasDirective reports whether any comment line of any given group is the
// exact directive (e.g. "pooled", "pool").
func hasDirective(want string, groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if payload, ok := strings.CutPrefix(c.Text, directivePrefix); ok {
				if strings.TrimSpace(payload) == want {
					return true
				}
			}
		}
	}
	return false
}

// collect scans one parsed package for marker directives.
func (m *Markers) collect(pkgPath string, files []*ast.File) {
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			switch gd.Tok {
			case token.TYPE:
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if hasDirective("pooled", gd.Doc, ts.Doc, ts.Comment) {
						m.PooledTypes[pkgPath+"."+ts.Name.Name] = true
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if !hasDirective("pool", field.Doc, field.Comment) {
							continue
						}
						for _, name := range field.Names {
							m.PoolFields[pkgPath+"."+ts.Name.Name+"."+name.Name] = true
						}
					}
				}
			case token.VAR:
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					if !hasDirective("pool", gd.Doc, vs.Doc, vs.Comment) {
						continue
					}
					for _, name := range vs.Names {
						m.PoolVars[pkgPath+"."+name.Name] = true
					}
				}
			}
		}
	}
}

// All returns every registered analyzer, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{NoDeterm, MapIter, PoolEscape, MetricOwner}
}

// Run executes the analyzers over the loaded packages and returns the
// diagnostics sorted by position then analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	markers := newMarkers()
	for _, pkg := range pkgs {
		markers.collect(pkg.Path, pkg.Files)
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		waivers := collectWaivers(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Markers:   markers,
				waivers:   waivers,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
