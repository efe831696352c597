package analysis

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadSrc type-checks one in-memory source file as a package under the
// given import path, through the same loader the driver uses.
func loadSrc(t *testing.T, path, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "src.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader().LoadDir(dir, path)
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil {
		t.Fatal("no package loaded")
	}
	return pkg
}

// findFunc returns the declaration of the named function.
func findFunc(t *testing.T, pkg *Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// findLocal returns the object of a local variable by name.
func findLocal(t *testing.T, pkg *Package, name string) types.Object {
	t.Helper()
	for ident, obj := range pkg.Info.Defs {
		if obj != nil && ident.Name == name {
			if _, isVar := obj.(*types.Var); isVar {
				return obj
			}
		}
	}
	t.Fatalf("local %s not found", name)
	return nil
}

// TestAliasChainPropagation pins the engine's fixpoint: a recover() tag
// reaches a local through a two-hop assignment chain whose hops appear in
// the "wrong" source order (g = h before h = recover(), inside a loop).
func TestAliasChainPropagation(t *testing.T) {
	pkg := loadSrc(t, "flow.test/errs", `package errs

func f() {
	var h any
	var g any
	for i := 0; i < 2; i++ {
		g = h
		h = recover()
	}
	_ = g
}
`)
	flow := analyzeFlow(pkg.Info, findFunc(t, pkg, "f").Body)

	if g := findLocal(t, pkg, "g"); !flow.tags[g][flowTag{kind: flowRecover}] {
		t.Errorf("local g not tagged as a recover() result; tags: %v", flow.tags[g])
	}
	// The loop index never aliases the recovered value.
	i := findLocal(t, pkg, "i")
	if len(flow.tags[i]) != 0 {
		t.Errorf("loop index unexpectedly tagged: %v", flow.tags[i])
	}
}

// TestRecoverTagThroughLocal pins that recover()'s result keeps its tag
// across an assignment, and that a shadowing function named recover does
// not tag.
func TestRecoverTagThroughLocal(t *testing.T) {
	pkg := loadSrc(t, "flow.test/errs", `package errs

func shadowed() any { return nil }

func f() {
	r := recover()
	v := r
	_ = v
}

func g(recover func() any) {
	s := recover()
	_ = s
}
`)
	flow := analyzeFlow(pkg.Info, findFunc(t, pkg, "f").Body)
	if !flow.tags[findLocal(t, pkg, "v")][flowTag{kind: flowRecover}] {
		t.Error("v not tagged as a recover() result")
	}
	flowG := analyzeFlow(pkg.Info, findFunc(t, pkg, "g").Body)
	if len(flowG.tags[findLocal(t, pkg, "s")]) != 0 {
		t.Error("shadowed recover incorrectly tagged")
	}
}

// TestSpanFieldStore pins the field-handoff detector: a NextSpan() handle
// flowing through a local into a struct field sets spanFieldStore.
func TestSpanFieldStore(t *testing.T) {
	pkg := loadSrc(t, "flow.test/spans", `package spans

type hub struct{ n int }

func (h *hub) NextSpan() int { h.n++; return h.n }

type job struct {
	span int
	hub  *hub
}

func (j *job) direct() { j.span = j.hub.NextSpan() }

func (j *job) viaLocal() {
	s := j.hub.NextSpan()
	j.span = s
}

func (j *job) unrelated() { j.span = 7 }
`)
	for _, name := range []string{"direct", "viaLocal"} {
		flow := analyzeFlow(pkg.Info, findFunc(t, pkg, name).Body)
		if !flow.spanFieldStore {
			t.Errorf("%s: span field store not detected", name)
		}
	}
	flow := analyzeFlow(pkg.Info, findFunc(t, pkg, "unrelated").Body)
	if flow.spanFieldStore {
		t.Error("unrelated: constant store misread as span handoff")
	}
}

// TestSummaryTable pins the cross-package summary computation: span
// opens/closes at the unit's own level only, marker bits, error results —
// and lookup through a *types.Func.
func TestSummaryTable(t *testing.T) {
	pkg := loadSrc(t, "sum.test/spans", `package spans

type ev int

const (
	EvRepairBegin ev = iota
	EvRepairEnd
)

func emit(ev) {}

func open() { emit(EvRepairBegin) }

func close_() { emit(EvRepairEnd) }

// closeInCallback must NOT summarize as a closer: the literal runs when
// the callback fires, not when the function is called.
func closeInCallback(run func(func())) {
	run(func() { emit(EvRepairEnd) })
}

//ftlint:besteffort
func tryCommit() error { return nil }

func commit() error { return nil }
`)
	markers := newMarkers()
	markers.collect(pkg.Path, pkg.Files)
	sums := buildSummaries([]*Package{pkg}, markers)

	check := func(key string) *FuncSummary {
		t.Helper()
		sum := sums.LookupKey(key)
		if sum == nil {
			t.Fatalf("no summary for %s", key)
		}
		return sum
	}
	if sum := check("sum.test/spans.open"); !sum.Opens["Repair"] || len(sum.Closes) != 0 {
		t.Errorf("open: Opens=%v Closes=%v", sum.Opens, sum.Closes)
	}
	if sum := check("sum.test/spans.close_"); !sum.Closes["Repair"] {
		t.Errorf("close_: Closes=%v", sum.Closes)
	}
	if sum := check("sum.test/spans.closeInCallback"); len(sum.Closes) != 0 {
		t.Errorf("closeInCallback leaked nested closer: Closes=%v", sum.Closes)
	}
	if sum := check("sum.test/spans.tryCommit"); !sum.BestEffort {
		t.Error("tryCommit: BestEffort marker not summarized")
	}
	if sum := check("sum.test/spans.commit"); !sum.ErrorResult || sum.BestEffort {
		t.Errorf("commit: ErrorResult=%v BestEffort=%v", sum.ErrorResult, sum.BestEffort)
	}
	if sum := check("sum.test/spans.open"); sum.ErrorResult {
		t.Error("open: spurious error result")
	}

	// Lookup through the typed object, as analyzers do at call sites.
	for ident, obj := range pkg.Info.Defs {
		if fn, ok := obj.(*types.Func); ok && ident.Name == "close_" {
			if sum := sums.Lookup(fn); sum == nil || !sum.Closes["Repair"] {
				t.Error("Lookup(*types.Func) missed close_'s summary")
			}
		}
	}
}

// TestCFGExitKinds pins the control-flow graph's exit classification:
// which of return/panic/fall-through are reachable from the entry.
func TestCFGExitKinds(t *testing.T) {
	pkg := loadSrc(t, "cfg.test/spans", `package spans

func retOrPanic(x bool) {
	if x {
		return
	}
	panic("boom")
}

func infinite() {
	for {
	}
}

func fallsThrough(xs []int) {
	for range xs {
	}
}

func breaksOut() {
	for {
		break
	}
}
`)
	reachable := func(name string) map[exitKind]bool {
		cfg := buildCFG(findFunc(t, pkg, name).Body)
		seen := make(map[*cfgNode]bool)
		out := make(map[exitKind]bool)
		var dfs func(*cfgNode)
		dfs = func(n *cfgNode) {
			if seen[n] {
				return
			}
			seen[n] = true
			if n.exit != exitNone {
				out[n.exit] = true
			}
			for _, s := range n.succs {
				dfs(s)
			}
		}
		dfs(cfg.entry)
		return out
	}

	if got := reachable("retOrPanic"); !got[exitReturn] || !got[exitPanic] || got[exitFall] {
		t.Errorf("retOrPanic exits = %v", got)
	}
	if got := reachable("infinite"); len(got) != 0 {
		t.Errorf("infinite loop must reach no exit, got %v", got)
	}
	if got := reachable("fallsThrough"); !got[exitFall] || got[exitReturn] {
		t.Errorf("fallsThrough exits = %v", got)
	}
	if got := reachable("breaksOut"); !got[exitFall] {
		t.Errorf("breaksOut exits = %v", got)
	}
}

// TestSpanBalancePanicPath runs the full driver over an in-memory
// package and pins the panic-path traversal end to end: the Begin is
// closed on the return path but leaks when validation panics.
func TestSpanBalancePanicPath(t *testing.T) {
	pkg := loadSrc(t, "cfg.test/spans", `package spans

type ev int

const (
	EvDrainBegin ev = iota
	EvDrainEnd
)

func emit(ev) {}

func drain(n int) {
	emit(EvDrainBegin)
	if n < 0 {
		panic("negative drain")
	}
	emit(EvDrainEnd)
}
`)
	diags, err := Run([]*Package{pkg}, []*Analyzer{SpanBalance})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic, got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "panic path") {
		t.Errorf("diagnostic does not name the panic path: %s", diags[0].Message)
	}
}
