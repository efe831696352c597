package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// ErrType enforces the typed-error discipline the ULFM layer (PR 8) and
// the typed StorageSpec validation (PR 9) introduced:
//
//  1. a recovered panic value must be classified through mpi.AsFTError,
//     never by asserting the payload type directly — the ftSignal
//     carrier is private to mpi on purpose, and a raw assertion
//     swallows genuine programming-error panics;
//  2. sentinel errors (mpi.ErrProcFailed, mpi.ErrRevoked, ...) must be
//     matched with errors.Is, and concrete error types extracted with
//     errors.As — == and type assertions break as soon as a wrap layer
//     appears;
//  3. fmt.Errorf must wrap an error-typed argument with %w, not flatten
//     it through %s/%v/%q — flattening a *ftpm.ConfigError (or any
//     typed error) severs the chain errors.As needs (fixed by -fix);
//  4. an error result from the checkpoint-commit layers must not be
//     silently discarded (a bare call statement or `_ =`), unless the
//     callee is marked //ftlint:besteffort.
var ErrType = &Analyzer{
	Name: "errtype",
	Doc:  "typed-error discipline: AsFTError, errors.Is/As, %w wrapping, no dropped commit errors",
	Run:  runErrType,
}

// errDropPkgs are the package base names whose error results must not
// be discarded by in-scope callers: the checkpoint-commit path and the
// protocol layer beneath it.
var errDropPkgs = map[string]bool{
	"ckpt": true,
	"mpi":  true,
	"ftpm": true,
	"pcl":  true,
	"vcl":  true,
	"mlog": true,
	"errs": true, // fixture base name
}

func runErrType(pass *Pass) error {
	if !inScope("errtype", pass.Pkg.Path()) {
		return nil
	}
	inMPI := strings.HasSuffix(pass.Pkg.Path(), "/mpi") || pass.Pkg.Path() == "mpi"
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			flow := analyzeFlow(pass.TypesInfo, fd.Body)
			// An `Is(target error) bool` method IS the sentinel match:
			// `target == ErrX` there is the implementation errors.Is
			// dispatches to, not a call site to rewrite.
			isMethod := fd.Name.Name == "Is" && fd.Recv != nil
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeAssertExpr:
					// Covers type-switch guards too: Inspect reaches the
					// x.(type) expression inside the switch header.
					checkRecoverAssert(pass, flow, n, inMPI)
					checkErrorAssert(pass, n)
				case *ast.BinaryExpr:
					if !isMethod {
						checkSentinelCompare(pass, n)
					}
				case *ast.CallExpr:
					checkErrorfWrap(pass, n)
				case *ast.ExprStmt:
					checkDroppedError(pass, n.X, n.Pos())
				case *ast.AssignStmt:
					checkBlankError(pass, n)
				}
				return true
			})
		}
	}
	return nil
}

// checkRecoverAssert flags type assertions and type switches on a value
// the alias engine traced back to recover().  Package mpi is exempt: it
// owns the ftSignal carrier AsFTError unwraps.
func checkRecoverAssert(pass *Pass, flow *funcFlow, assert *ast.TypeAssertExpr, inMPI bool) {
	if inMPI {
		return
	}
	if !flow.exprTags(assert.X)[flowTag{kind: flowRecover}] {
		return
	}
	pass.Reportf(assert.Pos(),
		"type assertion on a recover() result; classify FT panics with mpi.AsFTError")
}

// checkErrorAssert flags `x.(SomeError)` where x's static type is the
// error interface: wrap layers break it, errors.As does not.
func checkErrorAssert(pass *Pass, assert *ast.TypeAssertExpr) {
	if assert.Type == nil {
		return // type switch handled separately (recover rule only)
	}
	xt := pass.TypesInfo.Types[assert.X].Type
	if xt == nil || !isErrorType(xt) {
		return
	}
	tt := pass.TypesInfo.Types[assert.Type].Type
	if tt == nil || !implementsError(tt) {
		return
	}
	pass.Reportf(assert.Pos(),
		"type assertion on an error value; use errors.As so wrapped errors still match")
}

// checkSentinelCompare flags `err == ErrSentinel` / `!=` where one side
// is a package-level error variable named Err*.
func checkSentinelCompare(pass *Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if name := sentinelErrName(pass.TypesInfo, side); name != "" {
			pass.Reportf(bin.Pos(),
				"comparing against sentinel error %s with %s; use errors.Is so wrapped errors still match",
				name, bin.Op)
			return
		}
	}
}

func sentinelErrName(info *types.Info, e ast.Expr) string {
	var ident *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		ident = e
	case *ast.SelectorExpr:
		ident = e.Sel
	default:
		return ""
	}
	v, ok := identObj(info, ident).(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	if !strings.HasPrefix(v.Name(), "Err") || !implementsError(v.Type()) {
		return ""
	}
	return v.Name()
}

// checkErrorfWrap flags fmt.Errorf calls that flatten an error-typed
// argument through %s/%v/%q instead of wrapping with %w, and attaches
// the mechanical rewrite for -fix.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return
	}
	recv, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	if pkg, ok := identObj(pass.TypesInfo, recv).(*types.PkgName); !ok || pkg.Imported().Path() != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs, ok := formatVerbs(format)
	if !ok || len(verbs) != len(call.Args)-1 {
		return // indexed or mismatched format: out of this rule's depth
	}
	fixed := []byte(format)
	var badVerb string
	var badType types.Type
	for i, v := range verbs {
		if v.letter != 's' && v.letter != 'v' && v.letter != 'q' {
			continue
		}
		argType := pass.TypesInfo.Types[call.Args[1+i]].Type
		if argType == nil || !implementsError(argType) {
			continue
		}
		badVerb = "%" + string(v.letter)
		badType = argType
		fixed[v.letterOff] = 'w'
	}
	if badVerb == "" {
		return
	}
	what := "an error"
	if named, ok := badType.(*types.Pointer); ok {
		badType = named.Elem()
	}
	if named, ok := badType.(*types.Named); ok && strings.HasSuffix(named.Obj().Name(), "ConfigError") {
		what = named.Obj().Name()
	}
	pass.ReportfFix(lit.Pos(), []TextEdit{{
		Pos: lit.Pos(),
		End: lit.End(),
		New: strconv.Quote(string(fixed)),
	}}, "fmt.Errorf flattens %s through %s; wrap with %%w so errors.Is/As still match", what, badVerb)
}

type fmtVerb struct {
	letter    byte
	letterOff int // offset of the verb letter within the unquoted format
}

// formatVerbs extracts the verbs of a printf format string.  Returns
// ok=false for explicit argument indexes or *-width forms, which this
// rule does not model.
func formatVerbs(format string) ([]fmtVerb, bool) {
	var out []fmtVerb
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			return nil, false
		}
		if format[i] == '%' {
			continue
		}
		for i < len(format) && strings.IndexByte("+-# 0123456789.", format[i]) >= 0 {
			i++
		}
		if i >= len(format) || format[i] == '[' || format[i] == '*' {
			return nil, false
		}
		out = append(out, fmtVerb{letter: format[i], letterOff: i})
	}
	return out, true
}

// checkDroppedError flags a bare call statement that discards an error
// result from a commit-path package.
func checkDroppedError(pass *Pass, e ast.Expr, pos token.Pos) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	callee := staticCallee(pass.TypesInfo, call)
	if callee == nil || !droppableError(pass, callee) {
		return
	}
	pass.Reportf(pos,
		"result of %s includes an error that is silently discarded; handle it or mark the callee //ftlint:besteffort",
		callee.Name())
}

// checkBlankError flags `_ = call()` / `x, _ := call()` discarding the
// error result of a commit-path callee.
func checkBlankError(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	callee := staticCallee(pass.TypesInfo, call)
	if callee == nil || !droppableError(pass, callee) {
		return
	}
	// The error is the last result; it is discarded when the last LHS
	// is the blank identifier.
	last, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident)
	if !ok || last.Name != "_" {
		return
	}
	pass.Reportf(as.Pos(),
		"error result of %s assigned to _; handle it or mark the callee //ftlint:besteffort",
		callee.Name())
}

// droppableError reports whether discarding the callee's error result is
// in this rule's scope: the callee returns an error, lives in a
// commit-path package, and is not marked //ftlint:besteffort.
func droppableError(pass *Pass, callee *types.Func) bool {
	if callee.Pkg() == nil || !errDropPkgs[pkgBaseName(callee.Pkg().Path())] {
		return false
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	if !isErrorType(sig.Results().At(sig.Results().Len() - 1).Type()) {
		return false
	}
	if pass.Markers.BestEffortFuncs[funcKey(callee)] {
		return false
	}
	if sum := pass.Summaries.Lookup(callee); sum != nil && sum.BestEffort {
		return false
	}
	return true
}

func pkgBaseName(p string) string {
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}

// implementsError reports whether t (or *t) satisfies the error
// interface.
func implementsError(t types.Type) bool {
	if isErrorType(t) {
		return true
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if types.Implements(t, errType) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), errType)
	}
	return false
}
