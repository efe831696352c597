package ftckpt

// Four static rules over the module's non-test source, read with go/parser
// alone; no run shows any of these hazards until a workload exercises it.
//   - Ambient entropy: simulation packages read no host clock and no unseeded
//     randomness (entropyBans).  Import names come from each file's import
//     specs; a name the parser resolves to a local declaration is not one.
//   - Pooled holders: a struct field or package var whose declared type holds
//     a pointer to a pooled type (*T, []*T, [N]*T, map value, type argument)
//     is listed in pooledHolders, since a pooled record is reused on release.
//   - Sent bytes are read-only: simulation packages write no byte that a
//     .Data or .Blocks selector reaches (p.Data[i], cs.Blocks[i][j], by
//     assignment, op=, ++ or --, or as the destination of copy or append),
//     since a sent buffer is shared by its receivers, logs and images.
//   - One cadence: the protocol packages arm and cancel no timer (a call of
//     a clock method, timerMethods), since core.Cadence owns the one timer
//     a protocol has and Protocol.Stop cancels it; a timer armed beside it
//     outlives Stop into a revoked or restarted world.
// The holder rule checks declarations, not stores, so a holder typed any
// would go unseen; no pooled record travels that way (lanes carry their
// records by value).  A package var with an inferred type is not seen
// either, the entropy rule misses names used through a dot import, and
// the sent-bytes rule misses a write through a local alias of the bytes.
// The cadence rule tells a clock method from a namesake by its argument
// count (a sim.Queue's At(i) is a read), so a timer call through a func
// value or a wrapper of another name goes unseen.
// Map order is left to the runs (TestGoldenDeterminismRepeat).

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// simPackages run inside, or feed, the simulation.  cmd/ and the experiment
// harnesses time the simulator and may read the host clock.
const simPackages = "sim simnet mpi ftpm ckpt chaos failure obs sweep span nas core pcl vcl mlog"

// randGlobals are the top-level draws of math/rand and math/rand/v2.
const randGlobals = "Int Intn IntN Int31 Int31n Int32 Int32N Int63 Int63n Int64 Int64N Uint Uint32 Uint32N " +
	"Uint64 Uint64N UintN Float32 Float64 ExpFloat64 NormFloat64 Perm Shuffle Seed Read N"

// entropyBans maps an import path to the names a simulation package may
// not use from it ("*" bans every name) and why.
var entropyBans = map[string]struct{ names, why string }{
	"time":         {"Now Since Until Sleep After Tick NewTimer NewTicker AfterFunc", "reads host time; use the kernel's virtual clock"},
	"math/rand":    {randGlobals, "draws from the process-seeded global source; use sim.Kernel.Rand() or a seeded rand.New"},
	"math/rand/v2": {randGlobals, "draws from the process-seeded global source; use sim.Kernel.Rand() or a seeded rand.New"},
	"crypto/rand":  {"*", "is hardware entropy and cannot be seeded"},
	"os":           {"Getpid Getppid", "differs from process to process"},
}

// protocolPackages arm no timer of their own: core.Cadence does.
const protocolPackages = "pcl vcl mlog"

// timerMethods are the clock methods (sim.Kernel, core.Clock) with the
// number of arguments each takes.
var timerMethods = map[string]int{"After": 2, "AfterArg": 3, "At": 2, "AtArg": 3, "Cancel": 1}

// pooledTypes are the recycled record types.
const pooledTypes = "sim.eventSlot mpi.CollState"

// pooledHolders are the only declarations that may hold a pooled pointer,
// each with why it cannot outlive the release.
var pooledHolders = map[string]string{
	"mpi.Engine.coll":      "the in-flight collective; endColl moves it to collFree",
	"mpi.Engine.collFree":  "the one-record free list",
	"mpi.EngineImage.Coll": "holds a clone(), never the pooled record",
}

// lintFile returns one file's findings and marks in held the holders it declares.
func lintFile(fset *token.FileSet, f *ast.File, held map[string]bool) []string {
	pkg := f.Name.Name
	var out []string
	imports := map[string]string{} // local name -> import path
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		name := path.Base(strings.TrimSuffix(p, "/v2")) // math/rand/v2 is rand
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = p
	}
	if slices.Contains(strings.Fields(simPackages), pkg) {
		// written flags x when it reaches sent bytes.
		written := func(x ast.Expr, indexes int) {
			if sentBytes(x, indexes) {
				out = append(out, fmt.Sprintf("%s: writes into sent bytes, which are shared and read-only (mpi.Packet.Data)", fset.Position(x.Pos())))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && id.Obj == nil {
					p := imports[id.Name]
					ban, ok := entropyBans[p]
					if ok && (ban.names == "*" || slices.Contains(strings.Fields(ban.names), n.Sel.Name)) {
						out = append(out, fmt.Sprintf("%s: %s.%s %s", fset.Position(n.Pos()), p, n.Sel.Name, ban.why))
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					written(lhs, 0)
				}
			case *ast.IncDecStmt:
				written(n.X, 0)
			case *ast.CallExpr:
				// The builtins write into their first argument's elements.
				if id, ok := n.Fun.(*ast.Ident); ok && id.Obj == nil && (id.Name == "copy" || id.Name == "append") && len(n.Args) > 0 {
					written(n.Args[0], 1)
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && slices.Contains(strings.Fields(protocolPackages), pkg) {
					if args, ok := timerMethods[sel.Sel.Name]; ok && args == len(n.Args) {
						out = append(out, fmt.Sprintf("%s: %s arms or cancels a protocol timer; only core.Cadence does", fset.Position(n.Pos()), sel.Sel.Name))
					}
				}
			}
			return true
		})
	}

	// check flags a declared type holding a pooled pointer outside a func.
	check := func(key string, typ ast.Expr, pos token.Pos) {
		ast.Inspect(typ, func(n ast.Node) bool {
			star, ok := n.(*ast.StarExpr)
			if !ok {
				_, isFunc := n.(*ast.FuncType) // a func value holds no record
				return n != nil && !isFunc     // nil: a var's inferred type
			}
			t := pkg + "." + fmt.Sprint(star.X) // an *ast.Ident prints its name
			if sel, ok := star.X.(*ast.SelectorExpr); ok {
				t = path.Base(imports[fmt.Sprint(sel.X)]) + "." + sel.Sel.Name
			}
			if !slices.Contains(strings.Fields(pooledTypes), t) {
				return true
			}
			if _, ok := pooledHolders[key]; !ok {
				out = append(out, fmt.Sprintf("%s: %s holds a pooled *%s but is not in pooledHolders", fset.Position(pos), key, t))
			}
			held[key] = true
			return false
		})
	}
	for name, obj := range f.Scope.Objects { // the file's package-level declarations
		switch d := obj.Decl.(type) {
		case *ast.ValueSpec:
			check(pkg+"."+name, d.Type, obj.Pos())
		case *ast.TypeSpec:
			if st, ok := d.Type.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, n := range fld.Names {
						check(pkg+"."+name+"."+n.Name, fld.Type, n.Pos())
					}
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// sentBytes reports whether x, written with indexes more levels of
// indexing, reaches the bytes of a .Data selector (a []byte) or a .Blocks
// one (a [][]byte): p.Data[i] and cs.Blocks[i][j] do, cs.Blocks[i] is the
// holder's own slot.  Slicing and parentheses reach the same bytes.
func sentBytes(x ast.Expr, indexes int) bool {
	for {
		switch e := x.(type) {
		case *ast.IndexExpr:
			indexes++
			x = e.X
		case *ast.SliceExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.SelectorExpr:
			return e.Sel.Name == "Data" && indexes >= 1 || e.Sel.Name == "Blocks" && indexes >= 2
		default:
			return false
		}
	}
}

// TestLintTree holds the module to every rule, and the tables to the tree:
// every listed package and holder still exists.
func TestLintTree(t *testing.T) {
	fset := token.NewFileSet()
	held, seen := map[string]bool{}, map[string]bool{}
	err := filepath.Walk(".", func(p string, info os.FileInfo, err error) error {
		if err != nil || p == "." {
			return err
		}
		if info.IsDir() { // skip nested modules, fixtures and .git
			if _, mod := os.Stat(filepath.Join(p, "go.mod")); mod == nil || info.Name() == "testdata" || info.Name()[0] == '.' {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err == nil {
			seen[f.Name.Name] = true
			for _, msg := range lintFile(fset, f, held) {
				t.Error(msg)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range strings.Fields(simPackages) {
		if !seen[pkg] {
			t.Errorf("simPackages lists %s, which is not a package in the tree", pkg)
		}
	}
	for key := range pooledHolders {
		if !held[key] {
			t.Errorf("pooledHolders lists %s, which declares no pooled pointer", key)
		}
	}
}

// TestLintSnippets feeds the rules one-line files they must flag, or pass.
func TestLintSnippets(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`package sim; import "time"; var t0 = time.Now()`, "time.Now reads host time"},
		{`package mpi; import mr "math/rand"; var x = mr.Intn(3)`, "math/rand.Intn draws"},
		{`package obs; import "math/rand/v2"; var x = rand.N(3)`, "math/rand/v2.N draws"},
		{`package ckpt; import "crypto/rand"; func f(b []byte) { rand.Read(b) }`, "crypto/rand.Read is hardware"},
		{`package mpi; type Engine struct{ last *CollState }`, "mpi.Engine.last holds a pooled *mpi.CollState"},
		{`package ckpt; import m "ftckpt/internal/mpi"; var held map[int][]*m.CollState`, "ckpt.held holds a pooled *mpi.CollState"},
		{`package sim; type q struct{ s ring[*eventSlot] }`, "sim.q.s holds a pooled *sim.eventSlot"},
		{`package nas; func f(p *P) { p.Data[0] = 1 }`, "writes into sent bytes"},
		{`package mpi; func f(cs *C, x byte) { cs.Blocks[1][2] |= x }`, "writes into sent bytes"},
		{`package vcl; func f(p *P) { (p.Data)[3]++ }`, "writes into sent bytes"},
		{`package ckpt; func f(p *P) { p.Data[1:][0]-- }`, "writes into sent bytes"},
		{`package core; func f(p *P, b []byte) { copy(p.Data[4:], b) }`, "writes into sent bytes"},
		{`package mlog; func f(cs *C, b []byte) { copy(cs.Blocks[0], b) }`, "writes into sent bytes"},
		{`package pcl; func f(p *P) []byte { return append(p.Data[:0], 1) }`, "writes into sent bytes"},
		{`package pcl; func (p *Pcl) f() { p.h.After(p.interval, p.tick) }`, "After arms or cancels a protocol timer"},
		{`package vcl; func (s *S) f() { s.k.Cancel(s.timer) }`, "Cancel arms or cancels a protocol timer"},
		{`package mlog; func f(k *K, fn func(any)) { k.AtArg(5, fn, nil) }`, "AtArg arms or cancels a protocol timer"},
		{`package mlog; func f(k *K) { k.At(5, func() {}) }`, "At arms or cancels a protocol timer"},
		// Not flagged: outside the simulation, shadowed, values, callbacks
		// and a var of inferred type; a holder's own Data or Blocks slot,
		// reads of sent bytes, a copy out of them, a shadowed copy and
		// writes outside the simulation.
		{`package expt; import "time"; var t0 = time.Now()`, ""},
		{`package sim; import "math/rand"; func f(rand *rand.Rand) int { return rand.Intn(3) }`, ""},
		{`package sim; type s struct{ v []eventSlot; f func(*eventSlot) }; var inferred = &eventSlot{}`, ""},
		{`package mpi; func f(p *P, cs *C, b []byte) { p.Data = b; cs.Blocks[1] = p.Data; cs.Data = append([]byte(nil), p.Data...) }`, ""},
		{`package mpi; func f(p *P, cs *C, b []byte) byte { copy(b, p.Data); copy(cs.Blocks, nil); return p.Data[0] + cs.Blocks[0][1] }`, ""},
		{`package mpi; func f(p *P, copy func([]byte, []byte)) { copy(p.Data, nil) }`, ""},
		{`package expt; func f(p *P) { p.Data[0] = 1 }`, ""},
		// Not flagged: a queue read and a store's Cancel in a protocol, a
		// cadence call, and timers outside the protocol packages.
		{`package mlog; func f(q *Q, op Op) *P { op.Cancel(); return q.At(0) }`, ""},
		{`package pcl; func (p *Pcl) f() { p.cad.Start(); p.cad.Stop() }`, ""},
		{`package ftpm; func f(k *K) { k.Cancel(k.After(1, nil)) }`, ""},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "snippet.go", tc.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := lintFile(fset, f, map[string]bool{})
		if tc.want == "" && len(got) > 0 || tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)) {
			t.Errorf("%s\n  want one finding containing %q (none if empty), got %q", tc.src, tc.want, got)
		}
	}
}
