// Package analysis implements ftlint, the repository's static-analysis
// suite.  Six analyzers encode the house invariants that the golden
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
//   - spanbalance: an EvXxxBegin-family emit must be matched by its End
//     (or Abort) on every return and panic path of the function, unless
//     the span handle demonstrably hands off to a later closer (stored
//     into a field, captured by a completion callback that closes it, or
//     declared with //ftlint:handoff, which in turn requires a closer to
//     exist in the package).
//   - errtype: typed-error discipline — FT panics classified only via
//     mpi.AsFTError, FT/Config error values matched with errors.Is or
//     errors.As (never == or direct type assertion), fmt.Errorf wrapping
//     errors with %w (never %s/%v), and no discarded error results from
//     the checkpoint-commit layer unless the callee is marked
//     //ftlint:besteffort.
//
// The driver deliberately mirrors the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Reportf, analysistest-style fixtures with // want
// comments) but is built on the standard library's go/ast, go/parser and
// go/types only: the container this repository builds in has no module
// proxy access, so the x/tools dependency is gated out.  Migrating to the
// real multichecker later is a mechanical substitution — the analyzer
// bodies already speak its vocabulary.
//
// On top of the analyzers the driver enforces waiver hygiene: an
// //ftlint:allow or //ftlint:ordered comment that no longer suppresses
// any diagnostic of an enabled analyzer is itself reported (analyzer
// name "deadwaiver"), so waivers cannot outlive the code they excused.
//
// Waiver directives, checked at the diagnostic's line or the line above:
//
//	//ftlint:allow <analyzer>[,<analyzer>...]   suppress named analyzers
//	//ftlint:ordered                            mapiter: order proven total
//	//ftlint:handoff                            spanbalance: closer elsewhere
//
// Marker directives, attached to declarations:
//
//	//ftlint:pooled      (type doc)   values of this type are pool-recycled
//	//ftlint:pool        (field/var)  sanctioned holder of pooled pointers
//	//ftlint:besteffort  (func doc)   callers may discard the error result
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

// A TextEdit is one span of source to replace — the unit of a suggested
// fix.  Pos == End inserts.
type TextEdit struct {
	Pos token.Pos
	End token.Pos
	New string
}

// A Diagnostic is one finding, positioned for file:line:col rendering.
// Fixes, when non-empty, are mechanical rewrites `ftlint -fix` applies.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Fixes    []TextEdit
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
	// Summaries is the cross-package function summary table built by the
	// dataflow engine over every package in the load.
	Summaries *Summaries

	// waivers maps file name -> line -> directive records present on that
	// line.  Shared across analyzers so usage accumulates for the
	// dead-waiver check.
	waivers waiverIndex

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a waiver directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, nil, format, args...)
}

// ReportfFix is Reportf with a suggested mechanical rewrite attached.
func (p *Pass) ReportfFix(pos token.Pos, fixes []TextEdit, format string, args ...any) {
	p.report(pos, fixes, format, args...)
}

func (p *Pass) report(pos token.Pos, fixes []TextEdit, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.waivers.waivedAt(position, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Fixes:    fixes,
	})
}

// Handoff reports whether an //ftlint:handoff directive marks pos (the
// line or the line above).  Consulting it counts as use, like a waiver.
func (p *Pass) Handoff(pos token.Pos) bool {
	return p.waivers.directiveAt(p.Fset.Position(pos), "handoff")
}

// directivePrefix introduces every ftlint comment directive.
const directivePrefix = "//ftlint:"

// waiverRec is one line directive occurrence, tracking whether it ever
// suppressed (or sanctioned) a diagnostic.
type waiverRec struct {
	payload    string // "allow nodeterm,mapiter", "ordered", "handoff"
	pos        token.Position
	cPos, cEnd token.Pos // the comment's extent, for the removal fix
	used       bool
}

// analyzers returns the analyzer names the waiver speaks for: the names
// listed by an allow directive, mapiter for ordered, spanbalance for
// handoff, nil for marker payloads that are not line waivers.
func (w *waiverRec) analyzers() []string {
	switch {
	case w.payload == "ordered":
		return []string{"mapiter"}
	case w.payload == "handoff":
		return []string{"spanbalance"}
	default:
		rest, ok := strings.CutPrefix(w.payload, "allow")
		if !ok {
			return nil
		}
		var names []string
		for _, name := range strings.Split(rest, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		return names
	}
}

// waiverIndex maps file name -> line -> directive records on that line.
type waiverIndex map[string]map[int][]*waiverRec

// waivedAt reports whether a waiver suppresses analyzer at position,
// marking any matching record used.  Handoff is not a waiver: it
// sanctions a validated pattern, and its own validation diagnostic must
// not be self-suppressed — it participates only through directiveAt and
// the dead-waiver check.
func (idx waiverIndex) waivedAt(position token.Position, analyzer string) bool {
	hit := false
	lines := idx[position.Filename]
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, rec := range lines[line] {
			if rec.payload == "handoff" {
				continue
			}
			for _, name := range rec.analyzers() {
				if name == analyzer {
					rec.used = true
					hit = true
				}
			}
		}
	}
	return hit
}

// directiveAt reports whether the exact directive payload appears at the
// position's line or the line above, marking matches used.
func (idx waiverIndex) directiveAt(position token.Position, payload string) bool {
	hit := false
	lines := idx[position.Filename]
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, rec := range lines[line] {
			if rec.payload == payload {
				rec.used = true
				hit = true
			}
		}
	}
	return hit
}

// collectWaivers builds the file/line directive index for one package.
// Marker payloads (pooled, pool, besteffort) are excluded — they
// attach to declarations, not diagnostic lines, and must not show up as
// dead waivers.
func collectWaivers(fset *token.FileSet, files []*ast.File) waiverIndex {
	out := make(waiverIndex)
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
				payload = strings.TrimSpace(payload)
				if !isLineDirective(payload) {
					continue
				}
				position := fset.Position(c.Pos())
				lines := out[position.Filename]
				if lines == nil {
					lines = make(map[int][]*waiverRec)
					out[position.Filename] = lines
				}
				lines[position.Line] = append(lines[position.Line],
					&waiverRec{payload: payload, pos: position, cPos: c.Pos(), cEnd: c.End()})
			}
		}
	}
	return out
}

// isLineDirective distinguishes line waivers from declaration markers.
func isLineDirective(payload string) bool {
	return payload == "ordered" || payload == "handoff" || strings.HasPrefix(payload, "allow")
}

// Markers is the cross-package table of declaration directives.  Keys are
// position-independent so that the same declaration is recognized whether
// it was type-checked by the driver or re-checked as a dependency:
// "pkgpath.Type" for types, "pkgpath.Type.Field" for fields,
// "pkgpath.var" for package variables and "pkgpath.Func" /
// "pkgpath.Type.Method" for functions.
type Markers struct {
	PooledTypes map[string]bool
	PoolFields  map[string]bool
	PoolVars    map[string]bool

	// BestEffortFuncs may have their error result discarded by callers
	// (//ftlint:besteffort).
	BestEffortFuncs map[string]bool
}

func newMarkers() *Markers {
	return &Markers{
		PooledTypes:     make(map[string]bool),
		PoolFields:      make(map[string]bool),
		PoolVars:        make(map[string]bool),
		BestEffortFuncs: make(map[string]bool),
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
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if hasDirective("besteffort", decl.Doc) {
					m.BestEffortFuncs[funcDeclKey(pkgPath, decl)] = true
				}
			case *ast.GenDecl:
				m.collectGen(pkgPath, decl)
			}
		}
	}
}

func (m *Markers) collectGen(pkgPath string, gd *ast.GenDecl) {
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

// funcDeclKey builds the marker/summary key for a function declaration:
// "pkgpath.Name" or "pkgpath.Recv.Name" for methods.
func funcDeclKey(pkgPath string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkgPath + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers (T[P]) do not occur in this repository; plain
	// identifiers cover every method here.
	if ident, ok := t.(*ast.Ident); ok {
		return pkgPath + "." + ident.Name + "." + fd.Name.Name
	}
	return pkgPath + "." + fd.Name.Name
}

// funcKey builds the same key from a types.Func object.
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if owner := ownerNamed(sig.Recv().Type()); owner != nil {
			return fn.Pkg().Path() + "." + owner.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// All returns every registered analyzer, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{NoDeterm, MapIter, PoolEscape, MetricOwner, SpanBalance, ErrType}
}

// Run executes the analyzers over the loaded packages and returns the
// diagnostics sorted by position then analyzer.  After the analyzers it
// runs the driver's own dead-waiver check: a waiver whose named
// analyzers all ran yet suppressed nothing is reported under the
// pseudo-analyzer name "deadwaiver".
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	markers := newMarkers()
	for _, pkg := range pkgs {
		markers.collect(pkg.Path, pkg.Files)
	}
	summaries := buildSummaries(pkgs, markers)
	enabled := make(map[string]bool)
	for _, a := range analyzers {
		enabled[a.Name] = true
	}
	var diags []Diagnostic
	var allWaivers []*waiverRec
	for _, pkg := range pkgs {
		waivers := collectWaivers(pkg.Fset, pkg.Files)
		for _, lines := range waivers {
			for _, recs := range lines {
				allWaivers = append(allWaivers, recs...)
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Markers:   markers,
				Summaries: summaries,
				waivers:   waivers,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	diags = append(diags, deadWaivers(allWaivers, enabled)...)
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

// deadWaivers flags every waiver that (a) names only analyzers that were
// enabled for this run — a partial `-only` run cannot judge the others —
// and (b) never suppressed a diagnostic.  The fix deletes the comment.
func deadWaivers(recs []*waiverRec, enabled map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, rec := range recs {
		if rec.used {
			continue
		}
		names := rec.analyzers()
		if len(names) == 0 {
			continue
		}
		covered := true
		for _, name := range names {
			if !enabled[name] {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      rec.pos,
			Analyzer: "deadwaiver",
			Message: fmt.Sprintf("//ftlint:%s suppresses no diagnostic; remove dead waiver",
				rec.payload),
			Fixes: []TextEdit{{Pos: rec.cPos, End: rec.cEnd, New: ""}},
		})
	}
	return out
}
