package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SpanBalance turns the span.Builder conservation invariant into a
// compile-time check: every obs.EvXxxBegin emit must be matched by the
// family's End or Abort on every return and panic path.  The runtime
// tolerates an unbalanced span by closing it at the horizon — which
// silently misattributes the dangling interval to the wrong phase, so
// the checker demands static balance instead.
//
// A Begin is considered balanced when one of these holds, checked in
// order (the sanctions mirror the handoff idioms the codebase actually
// uses — see DESIGN §5.13 for the soundness caveats):
//
//  1. a defer in the function closes the family (directly or via a
//     callee whose summary closes it) — covers every exit at once;
//  2. a function literal nested in the function closes the family — the
//     completion-callback pattern (ckpt store/drain callbacks, restart
//     fetch joins);
//  3. the Begin line carries //ftlint:handoff — the marker is validated:
//     some other function in the package must close the family, or the
//     marker itself is reported;
//  4. the function stores a NextSpan() handle into a struct field (seen
//     through the alias engine) and another function in the package
//     closes the family — the field-handoff pattern (pcl/vcl ckptSpan,
//     ftpm repairSpan/restartSpan);
//  5. the function itself closes the family: then every CFG path from
//     the Begin must reach a close — a direct End/Abort reference or a
//     call to a summarized closer — before a return, panic, or the end
//     of the function.
var SpanBalance = &Analyzer{
	Name: "spanbalance",
	Doc:  "every span Begin emit must be closed on all return and panic paths",
	Run:  runSpanBalance,
}

func runSpanBalance(pass *Pass) error {
	if !inScope("spanbalance", pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSpanUnit(pass, fd.Body)
			// Each nested function literal is its own unit: it runs at a
			// different time than its parent, so its Begins balance (or
			// hand off) independently.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkSpanUnit(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// spanRef is one reference to an EvXxx{Begin,End,Abort} constant.
type spanRef struct {
	pos    token.Pos
	family string
	role   string
}

func checkSpanUnit(pass *Pass, body *ast.BlockStmt) {
	opens := spanRefs(pass.TypesInfo, body, "Begin")
	if len(opens) == 0 {
		return
	}
	closes := spanRefs(pass.TypesInfo, body, "")
	deferred := deferredCloserFamilies(pass, body)
	nested := nestedCloserFamilies(pass, body)
	unitCloses := make(map[string]bool)
	for _, ref := range closes {
		if ref.role != "Begin" {
			unitCloses[ref.family] = true
		}
	}
	for _, key := range ownCloserCalls(pass, body) {
		unitCloses[key] = true
	}
	var cfg *funcCFG
	flow := analyzeFlow(pass.TypesInfo, body)
	for _, open := range opens {
		if deferred[open.family] || nested[open.family] {
			continue
		}
		if pass.Handoff(open.pos) {
			if !packageCloses(pass, open.family) {
				pass.Reportf(open.pos,
					"Ev%sBegin marked //ftlint:handoff but no function in this package closes the span (Ev%sEnd/Ev%sAbort)",
					open.family, open.family, open.family)
			}
			continue
		}
		if flow.spanFieldStore && packageCloses(pass, open.family) {
			// Field handoff: the span handle escaped into a struct field
			// and a later closer in the package owns it (pcl/vcl
			// ckptSpan, ftpm repairSpan/restartSpan).
			continue
		}
		if !unitCloses[open.family] {
			pass.Reportf(open.pos,
				"Ev%sBegin is never closed: no Ev%sEnd/Ev%sAbort in this function, no handoff (field store, callback, or //ftlint:handoff)",
				open.family, open.family, open.family)
			continue
		}
		if cfg == nil {
			cfg = buildCFG(body)
		}
		if kind, leak := unbalancedExit(pass, cfg, open); leak {
			pass.Reportf(open.pos,
				"Ev%sBegin is not closed on %s (missing Ev%sEnd/Ev%sAbort)",
				open.family, exitDesc(kind), open.family, open.family)
		}
	}
}

func exitDesc(kind exitKind) string {
	switch kind {
	case exitReturn:
		return "a return path"
	case exitPanic:
		return "a panic path"
	default:
		return "the fall-through path"
	}
}

// spanRefs collects span-constant references at the unit's own level
// (excluding nested function literals).  role "" collects every role.
func spanRefs(info *types.Info, body *ast.BlockStmt, role string) []spanRef {
	var out []spanRef
	walkOwnStmts(body, func(n ast.Node) {
		ident, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		if family, r := spanConst(info, ident); family != "" && (role == "" || r == role) {
			out = append(out, spanRef{pos: ident.Pos(), family: family, role: r})
		}
	})
	return out
}

// ownCloserCalls returns the families closed by calls (at the unit's own
// level) to functions whose summaries close a span family.
func ownCloserCalls(pass *Pass, body *ast.BlockStmt) []string {
	var out []string
	walkOwnStmts(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		for family := range calleeCloses(pass, call) {
			out = append(out, family)
		}
	})
	return out
}

// calleeCloses resolves a call's static callee and returns the span
// families its summary closes.
func calleeCloses(pass *Pass, call *ast.CallExpr) map[string]bool {
	fn := staticCallee(pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	sum := pass.Summaries.Lookup(fn)
	if sum == nil {
		return nil
	}
	return sum.Closes
}

// staticCallee returns the *types.Func a call resolves to, or nil for
// calls through function values, interfaces, or builtins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = identObj(info, fun)
	case *ast.SelectorExpr:
		obj = identObj(info, fun.Sel)
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// deferredCloserFamilies collects the families closed by defer
// statements anywhere in the unit's own statements.
func deferredCloserFamilies(pass *Pass, body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	walkOwnStmts(body, func(n ast.Node) {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return
		}
		// Anything in the deferred call subtree counts: a closure body
		// that references the close constant, a close constant passed as
		// an argument (`defer emit(EvDrainEnd)`), or a deferred call to a
		// summarized closer.
		for family := range closerRefsDeep(pass, def.Call) {
			out[family] = true
		}
	})
	return out
}

// nestedCloserFamilies collects the families closed inside function
// literals nested anywhere in the unit (at any depth): a completion
// callback that emits the End, or that calls a summarized closer.
func nestedCloserFamilies(pass *Pass, body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		for family := range closerRefsDeep(pass, lit.Body) {
			out[family] = true
		}
		return false // closerRefsDeep already descended
	})
	return out
}

// closerRefsDeep scans a whole subtree (nested literals included) for
// close references and closer calls.
func closerRefsDeep(pass *Pass, root ast.Node) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if family, role := spanConst(pass.TypesInfo, n); family != "" && role != "Begin" {
				out[family] = true
			}
		case *ast.CallExpr:
			for family := range calleeCloses(pass, n) {
				out[family] = true
			}
		}
		return true
	})
	return out
}

// packageCloses reports whether any function in the pass's package
// closes the family, per the summary table.
func packageCloses(pass *Pass, family string) bool {
	prefix := pass.Pkg.Path() + "."
	for key, sum := range pass.Summaries.byKey {
		if len(key) > len(prefix) && key[:len(prefix)] == prefix && sum.Closes[family] {
			return true
		}
	}
	return false
}

// unbalancedExit walks the CFG from the Begin's statement and reports
// the first exit kind reachable without passing a close of the family.
func unbalancedExit(pass *Pass, cfg *funcCFG, open spanRef) (exitKind, bool) {
	start := cfg.nodeAt(open.pos)
	if start == nil {
		return exitNone, false
	}
	// A close in the same statement after the Begin (mlog's adjacent
	// emit pattern collapses here when both live in one statement).
	if nodeClosesAfter(pass, start, open.family, open.pos) {
		return exitNone, false
	}
	visited := make(map[*cfgNode]bool)
	var dfs func(n *cfgNode) (exitKind, bool)
	dfs = func(n *cfgNode) (exitKind, bool) {
		if n.exit != exitNone {
			return n.exit, true
		}
		if visited[n] {
			return exitNone, false
		}
		visited[n] = true
		if nodeClosesAfter(pass, n, open.family, token.NoPos) {
			return exitNone, false
		}
		for _, succ := range n.succs {
			if kind, leak := dfs(succ); leak {
				return kind, true
			}
		}
		return exitNone, false
	}
	for _, succ := range start.succs {
		if kind, leak := dfs(succ); leak {
			return kind, true
		}
	}
	return exitNone, false
}

// nodeClosesAfter reports whether the node's own expressions contain a
// close of the family positioned after `after` (NoPos accepts any
// position).  Nested function literals do not count: their code runs
// later, if at all.
func nodeClosesAfter(pass *Pass, n *cfgNode, family string, after token.Pos) bool {
	if n.stmt == nil {
		return false
	}
	found := false
	for _, owned := range ownedExprs(n.stmt) {
		ast.Inspect(owned, func(node ast.Node) bool {
			if _, ok := node.(*ast.FuncLit); ok {
				return false
			}
			switch node := node.(type) {
			case *ast.Ident:
				if fam, role := spanConst(pass.TypesInfo, node); fam == family && role != "Begin" {
					if after == token.NoPos || node.Pos() > after {
						found = true
					}
				}
			case *ast.CallExpr:
				if calleeCloses(pass, node)[family] {
					if after == token.NoPos || node.Pos() > after {
						found = true
					}
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
