package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// MapIter flags `for range` over a map whose body feeds an
// order-sensitive sink: appending to a slice the enclosing function
// returns, emitting an obs event or metric, or scheduling kernel/network
// work.  Go randomizes map iteration order, so each of these leaks the
// per-run permutation into observable output.  Two escapes are
// recognized: sorting the populated slice with a total key after the loop
// (the sort.Slice / sort.SliceStable / slices.Sort idiom — totality of
// the key is the author's contract, the stable forms tie-break equal keys
// by insertion order which is itself map-ordered, so prefer a full key),
// and the //ftlint:ordered waiver on the range statement.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "flag map iteration feeding order-sensitive sinks (returned slices, obs emission, kernel scheduling)",
	Run:  runMapIter,
}

// obsMutators are the obs-package calls whose invocation order is (or
// feeds) observable output: the event stream is ordered, and histogram /
// counter writes interleave with it in exports of event-derived state.
var obsMutators = map[string]bool{
	"Emit": true, "Add": true, "Inc": true, "Set": true,
	"Observe": true, "Touch": true, "TouchHist": true,
}

// schedCalls are sim/simnet calls that mutate kernel scheduling state:
// the kernel assigns each event a sequence number at schedule time and
// equal-timestamp events fire in sequence order, so making these calls in
// map order reorders the simulation itself.
var schedCalls = map[string]bool{
	"At": true, "After": true, "AtArg": true, "AfterArg": true,
	"Go": true, "Kill": true, "Stop": true, "Cancel": true,
	"Close": true, "Send": true, "StartFlow": true, "StartFlowCapped": true,
}

// sortCalls recognize the order-restoring idiom after the loop.
var sortCalls = map[string]map[string]bool{
	"sort":   {"Slice": true, "SliceStable": true, "Sort": true, "Stable": true, "Strings": true, "Ints": true, "Float64s": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

func runMapIter(pass *Pass) error {
	if !isSimPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFuncMapRanges(pass, fn.Type, fn.Body)
				}
			case *ast.FuncLit:
				checkFuncMapRanges(pass, fn.Type, fn.Body)
			}
			return true
		})
	}
	return nil
}

// checkFuncMapRanges analyzes the map ranges belonging directly to one
// function (nested function literals are visited separately by the outer
// walk, with their own return contracts).
func checkFuncMapRanges(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	var ranges []*ast.RangeStmt
	inspectOwn(body, func(n ast.Node) {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if _, isMap := pass.TypesInfo.TypeOf(rs.X).Underlying().(*types.Map); isMap {
				ranges = append(ranges, rs)
			}
		}
	})
	for _, rs := range ranges {
		checkMapRange(pass, ftype, body, rs)
	}
}

// inspectOwn walks the statements of one function body without descending
// into nested function literals.
func inspectOwn(body *ast.BlockStmt, visit func(ast.Node)) {
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

func checkMapRange(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt, rs *ast.RangeStmt) {
	info := pass.TypesInfo
	// Objects of slices the function returns: named results plus any
	// identifier appearing in a return statement.
	returned := make(map[types.Object]bool)
	if ftype.Results != nil {
		for _, field := range ftype.Results.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					returned[obj] = true
				}
			}
		}
	}
	inspectOwn(body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, res := range ret.Results {
			if ident, ok := res.(*ast.Ident); ok {
				if obj := info.Uses[ident]; obj != nil {
					returned[obj] = true
				}
			}
		}
	})

	// appended collects `x = append(x, ...)` targets inside the range
	// body that the function returns.  The scan does not descend into
	// nested function literals: code there runs when the literal is
	// called, and the call that registers it is itself visible here.
	appended := make(map[types.Object]ast.Node)
	var obsSink, schedSink string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(info, call) || i >= len(n.Lhs) {
					continue
				}
				ident, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Uses[ident]
				if obj == nil {
					obj = info.Defs[ident]
				}
				if obj != nil && returned[obj] {
					appended[obj] = n
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil && fn.Pkg() != nil {
				base := pkgBase(fn.Pkg().Path())
				name := fn.Name()
				switch {
				case obsSink == "" && base == "obs" && obsMutators[name]:
					obsSink = name
				case schedSink == "" && (base == "sim" || base == "simnet") && schedCalls[name]:
					schedSink = base + "." + name
				}
			}
		}
		return true
	})

	if obsSink != "" {
		pass.Reportf(rs.Pos(), "map iteration emits obs %s calls in random order; iterate a sorted key slice or waive with //ftlint:ordered", obsSink)
	}
	if schedSink != "" {
		pass.Reportf(rs.Pos(), "map iteration calls %s, ordering kernel events by map permutation; iterate a sorted key slice or waive with //ftlint:ordered", schedSink)
	}
	// Report in deterministic object order (at most a handful).
	var names []string
	objs := make(map[string]types.Object)
	for obj := range appended {
		names = append(names, obj.Name())
		objs[obj.Name()] = obj
	}
	sort.Strings(names)
	for _, name := range names {
		if !sortedAfter(pass, body, rs, objs[name]) {
			pass.Reportf(rs.Pos(), "map iteration appends to returned slice %q in random order; sort it with a total key after the loop or waive with //ftlint:ordered", name)
		}
	}
}

// isBuiltinAppend reports whether the call is the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	ident, ok := call.Fun.(*ast.Ident)
	if !ok || ident.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[ident].(*types.Builtin)
	return isBuiltin
}

// calleeFunc resolves a call's target function or method, nil when it is
// not a named function (builtin, func value, conversion).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func pkgBase(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}

// sortedAfter reports whether obj is passed to a recognized sort call at
// some statement after the range loop in the same function body.
func sortedAfter(pass *Pass, body *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	info := pass.TypesInfo
	found := false
	inspectOwn(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || found || len(call.Args) == 0 {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		pkgIdent, ok := sel.X.(*ast.Ident)
		if !ok {
			return
		}
		pkgName, ok := info.Uses[pkgIdent].(*types.PkgName)
		if !ok || !sortCalls[pkgName.Imported().Path()][sel.Sel.Name] {
			return
		}
		arg := call.Args[0]
		if unary, ok := arg.(*ast.UnaryExpr); ok {
			arg = unary.X
		}
		if ident, ok := arg.(*ast.Ident); ok && info.Uses[ident] == obj {
			found = true
		}
	})
	return found
}
