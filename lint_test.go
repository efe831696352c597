package ftckpt

// Six static rules over the module's source and its documents, read with
// go/parser alone; no run shows any of the first four hazards until a
// workload exercises it, and none shows the last two at all.
//   - Ambient entropy: simulation packages read no host clock and no unseeded
//     randomness (entropyBans).  Import names come from each file's import
//     specs; a name the parser resolves to a local declaration is not one.
//   - Pooled holders: a struct field or package var whose declared type holds
//     a pointer to a pooled type (*T, []*T, [N]*T, map value, type argument)
//     is listed in pooledHolders, since a pooled record is reused on release.
//   - Sent bytes are read-only: simulation packages write no byte that a
//     .Data or .Blocks selector reaches (p.Data[i], cs.Blocks[i][j], by
//     assignment, op=, ++ or --, or as the destination of copy or append),
//     since a sent buffer is shared by its receivers, logs and images.  The
//     one exception is mpi's own: the fabric refills a buffer whose packet
//     arrived owned (mpi.Packet.Retain), which no holder shares; it does so
//     through a buffer the fabric hands out, never through a .Data
//     selector, so the check needs no exemption.
//   - One cadence: the protocol packages arm and cancel no timer (a call of
//     a clock method, timerMethods), since core.Cadence owns the one timer
//     a protocol has and Protocol.Stop cancels it; a timer armed beside it
//     outlives Stop into a revoked or restarted world.
//   - Every knob is set: each field of the configuration structs
//     (knobStructs) and of the metrics ledger (ledgerStructs) is written by
//     non-test code in the module or bench/, as a composite-literal key, an
//     assignment, op= or ++ through a selector (indexed or not), or an
//     Observe call through it.  A knob only tests set has one value in use,
//     which is a constant; a ledger field nothing writes exports a constant.
//     Default-filling (Normalize, Validate and the validate helpers) and
//     folding one ledger into another (Merge) are not writes.
//   - Documents name what exists: every backticked pkg.Name, Type.Member or
//     pkg.Type.Member in docFiles names a declaration in the tree (test
//     files and bench/ included), since a design that names a removed
//     function describes code that is gone.  A span whose first part is
//     neither a package nor a type of the tree (a variable, a file, the
//     standard library) is not checked, nor is pkg.name in lower case
//     alone, which is how metric names (mpi.msgs) read.  Every "DESIGN §N"
//     or "DESIGN.md §N.M" in the tree's Go files and documents (CHANGES.md,
//     which records past changes, apart) names a numbered heading of
//     DESIGN.md, and DESIGN.md stays within designBudget bytes,
//     since a design that only grows turns into its own history.
// The holder rule checks declarations, not stores, so a holder typed any
// would go unseen; no pooled record travels that way (lanes carry their
// records by value).  A package var with an inferred type is not seen
// either, the entropy rule misses names used through a dot import, and
// the sent-bytes rule misses a write through a local alias of the bytes.
// The cadence rule tells a clock method from a namesake by its argument
// count (a sim.Queue's At(i) is a read), so a timer call through a func
// value or a wrapper of another name goes unseen.
// The knob rule types a selector's operand from declarations alone
// (parameters, receivers, := and var, range values, struct fields, type
// assertions, the results of functions and func literals), so a write
// through a method's result or an interface goes unseen and its field is
// reported unset; the rule errs towards a finding, never past an unset
// knob.
// Map order is left to the runs (TestGoldenDeterminismRepeat).

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
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
const pooledTypes = "sim.eventSlot mpi.CollState mpi.wireBody ckpt.Image ckpt.StoreOp"

// pooledHolders are the only declarations that may hold a pooled pointer,
// each with why it cannot outlive the release.  A ckpt.Image returns to
// its rank's free list when its hold count reaches zero, so each of its
// holders counts one hold for as long as it keeps the pointer.  Its App
// buffer goes back earlier, when the record is retired below its rank's
// GC line, so the holders that read the content (level entries, fetch
// legs) count a read as well, and the ones that only move the record
// (store legs) read nothing but its size, which retirement keeps.  A log
// ckpt.StoreOp returns to its group's free list when its tracker drops it
// (StoreOp.Release): the release point is ftpm's procRun.dropSettled,
// whose list is typed []ckpt.Op and so is not seen here.  A message's
// body slot returns to its Fabric's free list when the message is consumed
// or dropped (Fabric.unwrap, Fabric.drop).
var pooledHolders = map[string]string{
	"mpi.Engine.coll":      "the in-flight collective; endColl moves it to collFree",
	"mpi.Engine.collFree":  "the one-record free list",
	"mpi.EngineImage.Coll": "holds a clone(), never the pooled record",
	"mpi.WireMsg.body":     "a message is consumed or dropped once, which hands the slot back, and no copy of it is read after that",
	"mpi.Fabric.free":      "the free list: only slots unwrap or drop emptied and handed back",

	"ckpt.rankImages.images": "a rank's free list: only records whose count reached zero, emptied; NewImage takes one off before it hands it out",
	"ckpt.nodeBuffer.images": "a buffer entry holds and reads one; gcBuffer, KillBuffer and an overwrite (put) let go",
	"ckpt.pfsStore.staging":  "a stripe write in flight holds one and reads its size alone, until it passes to the entry it lands as",
	"ckpt.pfsImage.img":      "a PFS entry holds and reads one until gcPFS drops the entry",
	"ckpt.waveImage.img":     "a server entry holds and reads one; GC, GCRank, Kill and an overwrite (putImage) let go",
	"ckpt.StoreOp.img":       "the group store holds one from Store until its last replica settles or Cancel, and reads its size alone",
	"ckpt.FetchOp.img":       "held and read from the image transfer's start until onDone returns, a failover, fail or Cancel",
	"ckpt.hierOp.leg":        "a buffer write holds one (its size alone), a buffer or PFS read holds and reads one, until it hands on or is cancelled",

	"ckpt.Group.free":        "the free list: only ops released with every replica landed, none aborted or cancelled",
	"ckpt.replica.op":        "an entry of its own op, cleared with it on release",
	"ckpt.nodeBuffer.drains": "image ops, which Release never recycles",
}

// knobStructs are the configuration structs the knob rule holds to being
// set; an alias of one (ftckpt.LevelSpec) writes the same fields.
// ledgerStructs are the ledgers it holds to being written.
const (
	knobStructs   = "ftckpt.Options ftpm.Config ftpm.HeartbeatSpec ckpt.Spec ckpt.LevelSpec chaos.Spec"
	ledgerStructs = "obs.Metrics"
)

// importsOf maps a file's import names to their paths.
func importsOf(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		name := path.Base(strings.TrimSuffix(p, "/v2")) // math/rand/v2 is rand
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = p
	}
	return imports
}

// lintFile returns one file's findings and marks in held the holders it declares.
func lintFile(fset *token.FileSet, f *ast.File, held map[string]bool) []string {
	pkg := f.Name.Name
	var out []string
	imports := importsOf(f) // local name -> import path
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

// qualify names a declared type by its package: "ckpt.LevelSpec",
// "*ftpm.Config", "[]ckpt.LevelSpec" (a map reads as a slice of its
// values: indexing reaches those either way); "" for any other shape.
func qualify(e ast.Expr, pkg string, imports map[string]string) string {
	switch e := e.(type) {
	case *ast.Ident:
		return pkg + "." + e.Name
	case *ast.SelectorExpr:
		return path.Base(imports[fmt.Sprint(e.X)]) + "." + e.Sel.Name
	case *ast.StarExpr:
		if t := qualify(e.X, pkg, imports); t != "" {
			return "*" + t
		}
	case *ast.ArrayType:
		if t := qualify(e.Elt, pkg, imports); t != "" {
			return "[]" + t
		}
	case *ast.MapType:
		if t := qualify(e.Value, pkg, imports); t != "" {
			return "[]" + t
		}
	}
	return ""
}

// typeIndex is what the knob rule knows of the tree's types: each
// struct's fields in order, with their types and positions, each alias's
// target and each one-result function's result.
type typeIndex struct {
	fields  map[string][]string       // "pkg.Type" → field names
	types   map[string]string         // "pkg.Type.Field" → its type, qualified
	pos     map[string]token.Position // "pkg.Type.Field" → its declaration
	aliases map[string]string         // "ftckpt.LevelSpec" → "ckpt.LevelSpec"
	results map[string]string         // "pkg.Func" → its one result's type
}

// canon resolves the named type under t's pointer and slice prefixes
// through the aliases.
func (ix *typeIndex) canon(t string) string {
	base := strings.TrimLeft(t, "*[]")
	if a, ok := ix.aliases[base]; ok {
		return t[:len(t)-len(base)] + a
	}
	return t
}

// knobWrites indexes the files' types and returns the "pkg.Type.Field"
// names their code writes: literal keys of a typed (or elided) struct
// literal, and selector assignments and Observe calls whose operand's
// type the function's declarations give.  Default-filling and merging
// functions are skipped.
func knobWrites(fset *token.FileSet, files []*ast.File) (*typeIndex, map[string]bool) {
	ix := &typeIndex{fields: map[string][]string{}, types: map[string]string{},
		pos: map[string]token.Position{}, aliases: map[string]string{}, results: map[string]string{}}
	for _, f := range files {
		pkg, imports := f.Name.Name, importsOf(f)
		for name, obj := range f.Scope.Objects {
			if fn, ok := obj.Decl.(*ast.FuncDecl); ok && fn.Type.Results != nil && len(fn.Type.Results.List) == 1 {
				ix.results[pkg+"."+name] = qualify(fn.Type.Results.List[0].Type, pkg, imports)
			}
			d, ok := obj.Decl.(*ast.TypeSpec)
			if !ok {
				continue
			}
			if d.Assign != 0 {
				ix.aliases[pkg+"."+name] = qualify(d.Type, pkg, imports)
			} else if st, ok := d.Type.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, n := range fld.Names {
						key := pkg + "." + name + "." + n.Name
						ix.fields[pkg+"."+name] = append(ix.fields[pkg+"."+name], n.Name)
						ix.types[key], ix.pos[key] = qualify(fld.Type, pkg, imports), fset.Position(n.Pos())
					}
				}
			}
		}
	}
	written := map[string]bool{}
	for _, f := range files {
		pkg, imports := f.Name.Name, importsOf(f)
		typ := func(e ast.Expr) string { return ix.canon(qualify(e, pkg, imports)) }
		// lit records the keys of a struct literal of type t, and of the
		// elided literals inside a slice or map literal of type t.
		var lit func(l *ast.CompositeLit, t string)
		lit = func(l *ast.CompositeLit, t string) {
			elem, isSlice := strings.CutPrefix(strings.TrimPrefix(t, "*"), "[]")
			for _, el := range l.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && !isSlice {
						written[strings.TrimPrefix(t, "*")+"."+id.Name] = true
					}
					el = kv.Value
				}
				if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil && isSlice {
					lit(inner, ix.canon(strings.TrimPrefix(elem, "*")))
				}
			}
		}
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			if fn != nil && (fn.Name.Name == "Normalize" || fn.Name.Name == "Merge" || strings.HasPrefix(strings.ToLower(fn.Name.Name), "validate")) {
				continue
			}
			env := map[string]string{} // a name in the function → its type
			var typeOf func(e ast.Expr) string
			typeOf = func(e ast.Expr) string {
				switch e := e.(type) {
				case *ast.Ident:
					return env[e.Name]
				case *ast.ParenExpr:
					return typeOf(e.X)
				case *ast.CompositeLit:
					if e.Type != nil {
						return typ(e.Type)
					}
				case *ast.UnaryExpr:
					if t := typeOf(e.X); t != "" && e.Op == token.AND {
						return "*" + t
					}
				case *ast.StarExpr:
					return strings.TrimPrefix(typeOf(e.X), "*")
				case *ast.TypeAssertExpr:
					if e.Type != nil {
						return typ(e.Type)
					}
				case *ast.SelectorExpr:
					return ix.canon(ix.types[strings.TrimPrefix(typeOf(e.X), "*")+"."+e.Sel.Name])
				case *ast.IndexExpr:
					if t, ok := strings.CutPrefix(strings.TrimPrefix(typeOf(e.X), "*"), "[]"); ok {
						return t
					}
				case *ast.FuncLit:
					if r := e.Type.Results; r != nil && len(r.List) == 1 {
						return "func " + typ(r.List[0].Type)
					}
				case *ast.CallExpr: // a func value of the function, or a package's function
					switch fun := e.Fun.(type) {
					case *ast.Ident:
						if t, ok := strings.CutPrefix(env[fun.Name], "func "); ok {
							return t
						}
						return ix.canon(ix.results[pkg+"."+fun.Name])
					case *ast.SelectorExpr:
						return ix.canon(ix.results[path.Base(imports[fmt.Sprint(fun.X)])+"."+fun.Sel.Name])
					}
				}
				return ""
			}
			declare := func(fields ...*ast.FieldList) {
				for _, fl := range fields {
					for _, fld := range fl.List {
						for _, n := range fld.Names {
							env[n.Name] = typ(fld.Type)
						}
					}
				}
			}
			assigned := func(x ast.Expr) {
				for idx, ok := x.(*ast.IndexExpr); ok; idx, ok = x.(*ast.IndexExpr) {
					x = idx.X
				}
				if sel, ok := x.(*ast.SelectorExpr); ok {
					if t := strings.TrimPrefix(typeOf(sel.X), "*"); t != "" {
						written[t+"."+sel.Sel.Name] = true
					}
				}
			}
			if fn != nil {
				if fn.Recv != nil {
					declare(fn.Recv)
				}
				declare(fn.Type.Params)
				if fn.Type.Results != nil {
					declare(fn.Type.Results)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if n.Type != nil {
						lit(n, typ(n.Type))
					}
				case *ast.FuncLit:
					declare(n.Type.Params)
				case *ast.ValueSpec:
					for i, name := range n.Names {
						if n.Type != nil {
							env[name.Name] = typ(n.Type)
						} else if i < len(n.Values) {
							env[name.Name] = typeOf(n.Values[i])
						}
					}
				case *ast.RangeStmt:
					if id, ok := n.Value.(*ast.Ident); ok {
						if t, ok := strings.CutPrefix(strings.TrimPrefix(typeOf(n.X), "*"), "[]"); ok {
							env[id.Name] = t
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						assigned(lhs)
						if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE && len(n.Rhs) == len(n.Lhs) {
							env[id.Name] = typeOf(n.Rhs[i])
						}
					}
				case *ast.IncDecStmt:
					assigned(n.X)
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Observe" {
						assigned(sel.X)
					}
				}
				return true
			})
		}
	}
	return ix, written
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

// goFiles parses the non-test Go files of the module rooted at root,
// skipping nested modules, fixtures and dot directories; with tests, its
// test files too.
func goFiles(fset *token.FileSet, root string, tests bool) ([]*ast.File, error) {
	var files []*ast.File
	err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil || p == root {
			return err
		}
		if info.IsDir() {
			if _, mod := os.Stat(filepath.Join(p, "go.mod")); mod == nil || info.Name() == "testdata" || info.Name()[0] == '.' {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || !tests && strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		files = append(files, f)
		return err
	})
	return files, err
}

// TestLintTree holds the module to every rule, and the tables to the tree:
// every listed package, holder and knob struct still exists.  The knob
// rule also reads bench/, a module of its own that sets knobs.
func TestLintTree(t *testing.T) {
	fset := token.NewFileSet()
	held, seen := map[string]bool{}, map[string]bool{}
	files, err := goFiles(fset, ".", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		seen[f.Name.Name] = true
		for _, msg := range lintFile(fset, f, held) {
			t.Error(msg)
		}
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
	bench, err := goFiles(fset, "bench", false)
	if err != nil {
		t.Fatal(err)
	}
	ix, written := knobWrites(fset, append(files, bench...))
	for _, msg := range unwritten(ix, written) {
		t.Error(msg)
	}
}

// unwritten returns a finding for each field of knobStructs and
// ledgerStructs that written lacks, and for each listed struct the tree
// does not declare.
func unwritten(ix *typeIndex, written map[string]bool) []string {
	var out []string
	for _, list := range []struct{ structs, why string }{
		{knobStructs, "is set by no code but tests; a knob with one value in use is a constant"},
		{ledgerStructs, "is written by no code but tests; a ledger field nothing writes exports a constant"},
	} {
		for _, st := range strings.Fields(list.structs) {
			if ix.fields[st] == nil {
				out = append(out, fmt.Sprintf("%s is listed, but it is not a struct in the tree", st))
			}
			for _, name := range ix.fields[st] {
				if key := st + "." + name; !written[key] {
					out = append(out, fmt.Sprintf("%s: %s %s", ix.pos[key], key, list.why))
				}
			}
		}
	}
	return out
}

// docFiles are the documents whose backticked identifiers must resolve.
const docFiles = "DESIGN.md README.md EXPERIMENTS.md .claude/skills/verify/SKILL.md"

// designBudget is the most bytes DESIGN.md may hold.
const designBudget = 40960

// designRef is a reference to a section of DESIGN.md; a bare §N cites the
// paper and is not one.
var designRef = regexp.MustCompile(`DESIGN(?:\.md)?\s+(?://\s*)?§(\d+(?:\.\d+)?)`)

// designHeading is a numbered heading of DESIGN.md: "## 4." or "### 4.1".
var designHeading = regexp.MustCompile(`(?m)^#{2,3} (\d+(?:\.\d+)?)\.? `)

// danglingRefs returns the DESIGN § references of doc that name no
// numbered heading of design, as "line N: §x".
func danglingRefs(design, doc string) []string {
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(design, -1) {
		sections[m[1]] = true
	}
	var out []string
	for _, m := range designRef.FindAllStringSubmatchIndex(doc, -1) {
		if n := doc[m[2]:m[3]]; !sections[n] {
			out = append(out, fmt.Sprintf("line %d: §%s", strings.Count(doc[:m[0]], "\n")+1, n))
		}
	}
	return out
}

// docIdent is a backticked pkg.Name, Type.Member or pkg.Type.Member, with
// an optional "()".
var docIdent = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*){1,2})(?:\\(\\))?`")

// declIndex is what the documents may name: each package's top-level
// declarations, and each type's fields and methods with the types it
// embeds (whose members it promotes).  Types are indexed by name alone,
// across packages.
type declIndex struct {
	pkgs    map[string]map[string]bool
	members map[string]map[string]bool
	embeds  map[string][]string
}

// typeName is the name of a receiver or embedded type: T, *T, T[P], pkg.T.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

func indexDecls(files []*ast.File) *declIndex {
	ix := &declIndex{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
	member := func(typ, name string) {
		if ix.members[typ] == nil {
			ix.members[typ] = map[string]bool{}
		}
		ix.members[typ][name] = true
	}
	for _, f := range files {
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if ix.pkgs[pkg] == nil {
			ix.pkgs[pkg] = map[string]bool{}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					ix.pkgs[pkg][d.Name.Name] = true
				} else {
					member(typeName(d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							ix.pkgs[pkg][n.Name] = true
						}
					case *ast.TypeSpec:
						name := sp.Name.Name
						ix.pkgs[pkg][name] = true
						if ix.members[name] == nil {
							ix.members[name] = map[string]bool{}
						}
						fields := &ast.FieldList{}
						switch t := sp.Type.(type) {
						case *ast.StructType:
							fields = t.Fields
						case *ast.InterfaceType:
							fields = t.Methods
						default:
							if sp.Assign.IsValid() { // an alias has its target's members
								ix.embeds[name] = append(ix.embeds[name], typeName(t))
							}
						}
						for _, fl := range fields.List {
							if len(fl.Names) == 0 {
								ix.embeds[name] = append(ix.embeds[name], typeName(fl.Type))
								member(name, typeName(fl.Type))
							}
							for _, n := range fl.Names {
								member(name, n.Name)
							}
						}
					}
				}
			}
		}
	}
	return ix
}

// hasMember reports whether type typ declares or promotes name.
func (ix *declIndex) hasMember(typ, name string, depth int) bool {
	if ix.members[typ][name] {
		return true
	}
	for _, e := range ix.embeds[typ] {
		if depth < 4 && ix.hasMember(e, name, depth+1) {
			return true
		}
	}
	return false
}

// dangling returns the backticked identifiers of doc, outside fenced code
// blocks, that name no declaration in ix, as "line N: `span`".
func (ix *declIndex) dangling(doc string) []string {
	var out []string
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range docIdent.FindAllStringSubmatch(line, -1) {
			parts := strings.Split(m[1], ".")
			ok := true
			switch {
			case ix.pkgs[parts[0]] != nil && len(parts) == 2 && strings.ToLower(parts[1]) == parts[1]:
				// A metric name (mpi.msgs), or a lower-case name that may be one.
			case ix.pkgs[parts[0]] != nil:
				ok = ix.pkgs[parts[0]][parts[1]] && (len(parts) == 2 || ix.hasMember(parts[1], parts[2], 0))
			case ix.members[parts[0]] != nil:
				ok = ix.hasMember(parts[0], parts[1], 0)
			}
			if !ok {
				out = append(out, fmt.Sprintf("line %d: `%s`", i+1, m[1]))
			}
		}
	}
	return out
}

// TestLintDocs holds docFiles to the tree: every backticked identifier
// they check names a declaration.  It also holds every DESIGN § reference
// of the tree to a heading, and DESIGN.md to its budget.
func TestLintDocs(t *testing.T) {
	fset := token.NewFileSet()
	files, err := goFiles(fset, ".", true)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := goFiles(fset, "bench", true)
	if err != nil {
		t.Fatal(err)
	}
	ix := indexDecls(append(files, bench...))
	for _, name := range strings.Fields(docFiles) {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ix.dangling(string(doc)) {
			t.Errorf("%s %s names no declaration in the tree", name, d)
		}
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(design); n > designBudget {
		t.Errorf("DESIGN.md is %d bytes, over its budget of %d: a new design replaces the paragraph it supersedes", n, designBudget)
	}
	err = filepath.Walk(".", func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if p != "." && p != ".claude" && (info.Name()[0] == '.' || info.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if p == "CHANGES.md" || !strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, ".md") {
			return nil
		}
		doc, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, d := range danglingRefs(string(design), string(doc)) {
			t.Errorf("%s %s names no heading of DESIGN.md", p, d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLintDocSnippets shows which backticked spans the document rule
// checks, against one small package.
func TestLintDocSnippets(t *testing.T) {
	const decls = `package mpi; type Packet struct{ Data []byte; Queue }; type Queue struct{}; func (q *Queue) Len() int { return 0 }
func EncodeF64s() {}; type Alias = Packet`
	f, err := parser.ParseFile(token.NewFileSet(), "decls.go", decls, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix := indexDecls([]*ast.File{f})
	for _, tc := range []struct{ doc, want string }{
		{"`mpi.EncodeF64s` and `mpi.EncodeF64`", "line 1: `mpi.EncodeF64`"},
		{"`Packet.Data`, `Packet.Len()` (promoted), `Alias.Data`, `Packet.Cap`", "line 1: `Packet.Cap`"},
		{"`mpi.Packet.Len`\n`mpi.Packet.Nope`", "line 2: `mpi.Packet.Nope`"},
		{"`mpi.Gone.Len`", "line 1: `mpi.Gone.Len`"},
		// Not checked: a metric name, the standard library, a file, a
		// variable's selector, a span that is not an identifier, a fenced
		// block.
		{"`mpi.msgs`, `runtime.MemStats`, `lint_test.go`, `p.Data`, `go test -run X .`", ""},
		{"```\n`mpi.Gone`\n```", ""},
	} {
		if got := strings.Join(ix.dangling(tc.doc), "; "); got != tc.want {
			t.Errorf("%q: dangling %q, want %q", tc.doc, got, tc.want)
		}
	}
	// Section references: one that resolves (wrapped in a comment), one
	// that dangles, and paper citations, which are not checked.
	const design = "## 4. Kernel\n### 4.1 Order\n"
	for _, tc := range []struct{ doc, want string }{
		{"// see DESIGN\n// §4.1 and DESIGN.md §4", ""},
		{"x\nDESIGN.md §" + "5.7's table", "line 2: §5.7"},
		{"paper §5.4, §2 and DESIGN.md", ""},
	} {
		if got := strings.Join(danglingRefs(design, tc.doc), "; "); got != tc.want {
			t.Errorf("%q: dangling %q, want %q", tc.doc, got, tc.want)
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

// TestLintKnobSnippets shows which writes the knob rule sees: each case is
// files separated by "--", and the fields their code writes.
func TestLintKnobSnippets(t *testing.T) {
	const decls = `package ckpt; type Spec struct{ Levels []LevelSpec; Compress bool }; type LevelSpec struct{ Kind string; Targets int }
--
package ftckpt; import "ftckpt/internal/ckpt"; type StorageSpec = ckpt.Spec; type LevelSpec = ckpt.LevelSpec
type Options struct{ NP int; Storage *StorageSpec }
`
	for _, tc := range []struct{ src, want string }{
		// Literal keys, elided element literals, an alias, and selector
		// writes through a parameter, a range value, an index, a pointer
		// and a closure's result.
		{`package main; import "ftckpt"; func f() { _ = &ftckpt.StorageSpec{Levels: []ftckpt.LevelSpec{{Kind: "pfs"}}} }`,
			"ckpt.LevelSpec.Kind ckpt.Spec.Levels"},
		{`package main; import "ftckpt"; func f(o *ftckpt.Options) { o.NP = 4; for _, l := range o.Storage.Levels { l.Targets++ } }`,
			"ckpt.LevelSpec.Targets ftckpt.Options.NP"},
		{`package ftckpt; func f(sp StorageSpec) { l := &sp.Levels[0]; l.Kind = "pfs"; mk := func() Options { return Options{} }; o := mk(); o.Storage = &sp }`,
			"ckpt.LevelSpec.Kind ftckpt.Options.Storage"},
		{`package main; import "ftckpt"; func opts() ftckpt.Options { var o ftckpt.Options; return o }; func f() { o := opts(); o.Storage.Compress = true }`,
			"ckpt.Spec.Compress"},
		{`package main; import "ftckpt"; func f(x any) { o := x.(*ftckpt.Options); o.Storage.Levels[0] = ftckpt.LevelSpec{} }`,
			"ckpt.Spec.Levels"},
		// Not knob writes: default-filling, and a namesake field of another
		// type (or of an operand whose type the declarations do not give).
		{`package ckpt; func (sp *Spec) Normalize() { sp.Compress = true }; func (sp *Spec) validate() { sp.Levels = nil }`, ""},
		{`package expt; type Row struct{ Targets int }; func f(r *Row, x interface{ L() *Row }) { r.Targets = 1; x.L().Targets = 2 }`,
			"expt.Row.Targets"},
	} {
		fset := token.NewFileSet()
		var files []*ast.File
		for i, src := range strings.Split(decls+"--\n"+tc.src, "--\n") {
			f, err := parser.ParseFile(fset, fmt.Sprintf("f%d.go", i), src, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		_, written := knobWrites(fset, files)
		var got []string
		for key := range written {
			got = append(got, key)
		}
		slices.Sort(got)
		if want := strings.Fields(tc.want); !slices.Equal(got, want) {
			t.Errorf("%s\n  writes %q, want %q", tc.src, got, want)
		}
	}
}

// TestLintLedgerSnippet: a ledger field that only a test writes is a
// finding of the tree's rule, which reads no test file; an increment, an
// indexed op= and an Observe call are writes, a Merge is not.
func TestLintLedgerSnippet(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"metrics.go": `package obs; type Hist struct{}; func (h *Hist) Observe(int64) {}
type Metrics struct{ N int64; H Hist; F map[int]int64; Dead int64 }
func (m *Metrics) Merge(o *Metrics) { m.Dead += o.Dead }`,
		"sink.go":      `package obs; func (m *Metrics) emit() { m.N++; m.H.Observe(1); m.F[2] += 3 }`,
		"sink_test.go": `package obs; func poke(m *Metrics) { m.Dead = 1 }`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fset := token.NewFileSet()
	files, err := goFiles(fset, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, msg := range unwritten(knobWrites(fset, files)) {
		if strings.Contains(msg, "obs.Metrics.") {
			got = append(got, msg)
		}
	}
	if len(got) != 1 || !strings.Contains(got[0], "obs.Metrics.Dead is written by no code but tests") {
		t.Errorf("findings on the ledger %q, want one naming obs.Metrics.Dead", got)
	}
}
