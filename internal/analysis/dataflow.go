package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// This file is the v2 dataflow layer: a small intra-procedural alias
// engine over the typed AST plus a cross-package function summary table.
// Both are deliberately modest — flow-insensitive tag propagation and
// one-level syntactic summaries — because the invariants they serve
// (span balance, error discipline) live in code that is already written
// defensively; the engine's job is to catch the alias one hop away from
// the source, not to be a points-to analysis.

// flowKind classifies where a tracked value originally came from.
type flowKind int

const (
	// flowRecover: the value is the result of recover() — errtype uses
	// this to demand mpi.AsFTError instead of raw type assertions.
	flowRecover flowKind = iota
	// flowSpan: the value is the result of a NextSpan() call — spanbalance
	// uses this to see a span handle escape into a struct field.
	flowSpan
)

// flowTag is one provenance fact about a local value.
type flowTag struct {
	kind flowKind
}

// funcFlow holds the alias facts for one function (or function literal)
// body: for each local object, the set of sources it may alias.  The
// analysis is flow-insensitive (an alias established anywhere in the body
// holds everywhere) and intra-procedural; calls other than recover() and
// NextSpan() are opaque.
type funcFlow struct {
	info *types.Info
	tags map[types.Object]map[flowTag]bool
	// spanFieldStore records that a span handle (flowSpan-tagged value)
	// was assigned into a struct field somewhere in the body.
	spanFieldStore bool
}

// analyzeFlow runs the alias engine over one function body.
func analyzeFlow(info *types.Info, body *ast.BlockStmt) *funcFlow {
	ff := &funcFlow{info: info, tags: make(map[types.Object]map[flowTag]bool)}
	if body == nil {
		return ff
	}
	// Collect assignment edges lhs <- rhs (including := and var decls),
	// then iterate to a fixpoint so chains resolve regardless of source
	// order: `y := x` before `x := recover()` still tags y.
	type edge struct {
		lhs types.Object
		rhs ast.Expr
	}
	var edges []edge
	addAssign := func(lhs []ast.Expr, rhs []ast.Expr) {
		if len(lhs) != len(rhs) {
			return // multi-value call form: opaque
		}
		for i, l := range lhs {
			ident, ok := l.(*ast.Ident)
			if !ok {
				continue
			}
			obj := ff.info.Defs[ident]
			if obj == nil {
				obj = ff.info.Uses[ident]
			}
			if obj == nil {
				continue
			}
			edges = append(edges, edge{obj, rhs[i]})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			addAssign(n.Lhs, n.Rhs)
			// A span handle stored through a selector is a field handoff.
			if len(n.Lhs) == len(n.Rhs) {
				for i, l := range n.Lhs {
					if _, ok := l.(*ast.SelectorExpr); ok {
						if ff.exprTags(n.Rhs[i])[flowTag{kind: flowSpan}] {
							ff.spanFieldStore = true
						}
					}
				}
			}
		case *ast.GenDecl:
			if n.Tok == token.VAR {
				for _, spec := range n.Specs {
					vs := spec.(*ast.ValueSpec)
					if len(vs.Values) == 0 {
						continue
					}
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					addAssign(lhs, vs.Values)
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			for tag := range ff.exprTags(e.rhs) {
				set := ff.tags[e.lhs]
				if set == nil {
					set = make(map[flowTag]bool)
					ff.tags[e.lhs] = set
				}
				if !set[tag] {
					set[tag] = true
					changed = true
					if tag.kind == flowSpan {
						// Re-scan is avoided by checking stores lazily in
						// spanEscapes; nothing more to do here.
						_ = tag
					}
				}
			}
		}
	}
	// Second pass for field stores of span handles that flowed through a
	// local: `s := hub.NextSpan(); job.span = s`.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, l := range as.Lhs {
			if _, ok := l.(*ast.SelectorExpr); ok {
				if ff.exprTags(as.Rhs[i])[flowTag{kind: flowSpan}] {
					ff.spanFieldStore = true
				}
			}
		}
		return true
	})
	return ff
}

// exprTags resolves the provenance tags of an expression under the
// current fact table.
func (ff *funcFlow) exprTags(e ast.Expr) map[flowTag]bool {
	out := make(map[flowTag]bool)
	ff.collectTags(e, out)
	return out
}

func (ff *funcFlow) collectTags(e ast.Expr, out map[flowTag]bool) {
	switch e := e.(type) {
	case *ast.Ident:
		for tag := range ff.tags[identObj(ff.info, e)] {
			out[tag] = true
		}
	case *ast.ParenExpr:
		ff.collectTags(e.X, out)
	case *ast.CallExpr:
		switch fn := e.Fun.(type) {
		case *ast.Ident:
			// The builtin resolves to *types.Builtin (or is absent from
			// Uses); a local function shadowing the name resolves to
			// *types.Func and must not tag.
			if fn.Name == "recover" {
				if obj := ff.info.Uses[fn]; obj == nil || isBuiltin(obj) {
					out[flowTag{kind: flowRecover}] = true
				}
			}
		case *ast.SelectorExpr:
			if fn.Sel.Name == "NextSpan" {
				out[flowTag{kind: flowSpan}] = true
			}
		}
	}
}

// isBuiltin reports whether obj is a predeclared builtin function.
func isBuiltin(obj types.Object) bool {
	_, ok := obj.(*types.Builtin)
	return ok
}

// identObj resolves an identifier to its object via Uses or Defs.
func identObj(info *types.Info, ident *ast.Ident) types.Object {
	if obj := info.Uses[ident]; obj != nil {
		return obj
	}
	return info.Defs[ident]
}

// ---------------------------------------------------------------------
// Cross-package function summaries.

// spanConstRe splits a span event constant name into its family and role.
var spanConstRe = regexp.MustCompile(`^Ev([A-Za-z0-9]+?)(Begin|End|Abort)$`)

// FuncSummary is the one-level syntactic summary of a function the
// analyzers consult at call sites.  It deliberately excludes function
// literals nested in the body: a close inside a completion callback does
// not happen when the function is called, so it must not count as a
// closer at the call site.
type FuncSummary struct {
	// Opens / Closes are the span families whose Begin (resp. End/Abort)
	// constants the body references directly.
	Opens  map[string]bool
	Closes map[string]bool
	// BestEffort mirrors the function's own //ftlint:besteffort marker.
	BestEffort bool
	// ErrorResult reports that the last result is of type error.
	ErrorResult bool
}

// Summaries is the cross-package summary table, keyed like Markers:
// "pkgpath.Func" or "pkgpath.Type.Method".
type Summaries struct {
	byKey map[string]*FuncSummary
}

// Lookup returns the summary for a types.Func, or nil when the function
// was not part of the load (stdlib, interface method with no static
// callee).
func (s *Summaries) Lookup(fn *types.Func) *FuncSummary {
	if s == nil || fn == nil {
		return nil
	}
	return s.byKey[funcKey(fn)]
}

// LookupKey returns the summary under an explicit marker-style key.
func (s *Summaries) LookupKey(key string) *FuncSummary {
	if s == nil {
		return nil
	}
	return s.byKey[key]
}

// buildSummaries scans every loaded package once and produces the table.
func buildSummaries(pkgs []*Package, markers *Markers) *Summaries {
	table := &Summaries{byKey: make(map[string]*FuncSummary)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := funcDeclKey(pkg.Path, fd)
				sum := summarize(pkg.Info, fd.Body)
				sum.BestEffort = markers.BestEffortFuncs[key]
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					sig := fn.Type().(*types.Signature)
					if n := sig.Results().Len(); n > 0 {
						sum.ErrorResult = isErrorType(sig.Results().At(n - 1).Type())
					}
				}
				table.byKey[key] = sum
			}
		}
	}
	return table
}

func summarize(info *types.Info, body *ast.BlockStmt) *FuncSummary {
	sum := &FuncSummary{Opens: make(map[string]bool), Closes: make(map[string]bool)}
	walkOwnStmts(body, func(n ast.Node) {
		ident, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		if family, role := spanConst(info, ident); family != "" {
			if role == "Begin" {
				sum.Opens[family] = true
			} else {
				sum.Closes[family] = true
			}
		}
	})
	return sum
}

// walkOwnStmts visits every node of body except those inside nested
// function literals.
func walkOwnStmts(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// spanConst reports the span family ("Repair") and role ("Begin", "End",
// "Abort") when ident resolves to an obs event-type constant of the
// EvXxxBegin family, or ("", "").
func spanConst(info *types.Info, ident *ast.Ident) (family, role string) {
	c, ok := identObj(info, ident).(*types.Const)
	if !ok || c.Pkg() == nil {
		return "", ""
	}
	m := spanConstRe.FindStringSubmatch(c.Name())
	if m == nil {
		return "", ""
	}
	return m[1], m[2]
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
