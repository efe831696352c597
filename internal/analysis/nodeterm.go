package analysis

import (
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// simPackages are the package base names whose code must be bit-
// reproducible for a fixed seed: everything that executes inside (or
// feeds) the discrete-event simulation.  cmd/ and the experiment
// harnesses may read the wall clock — they time the simulator, they do
// not run inside it.
var simPackages = map[string]bool{
	"sim":     true,
	"simnet":  true,
	"mpi":     true,
	"ftpm":    true,
	"ckpt":    true,
	"chaos":   true,
	"failure": true,
	"obs":     true,
	"sweep":   true,
	"span":    true,
	"nas":     true, // application kernels run inside the simulation, FT snapshots included
}

// isSimPackage reports whether an import path names a simulation package.
func isSimPackage(pkgPath string) bool {
	return simPackages[path.Base(pkgPath)]
}

// nodetermBan maps import path -> function name -> why it is banned.  An
// empty function-name key bans every reference to the package.
var nodetermBan = map[string]map[string]string{
	"time": {
		"Now":       "reads the wall clock; simulation code must use the kernel's virtual clock (sim.Kernel.Now / Proc.Now)",
		"Since":     "reads the wall clock; derive durations from sim.Kernel.Now instead",
		"Until":     "reads the wall clock; derive durations from sim.Kernel.Now instead",
		"Sleep":     "blocks on host time; model delays with Proc.Advance or Kernel.After",
		"After":     "fires on host time; schedule with sim.Kernel.After",
		"Tick":      "fires on host time; schedule with sim.Kernel.After",
		"NewTimer":  "fires on host time; schedule with sim.Kernel.After",
		"NewTicker": "fires on host time; schedule with sim.Kernel.After",
		"AfterFunc": "fires on host time; schedule with sim.Kernel.After",
	},
	"math/rand": {
		"Int": "", "Intn": "", "Int31": "", "Int31n": "", "Int63": "", "Int63n": "",
		"Uint32": "", "Uint64": "", "Float32": "", "Float64": "",
		"ExpFloat64": "", "NormFloat64": "", "Perm": "", "Shuffle": "",
		"Seed": "", "Read": "",
	},
	"math/rand/v2": {
		"Int": "", "IntN": "", "Int32": "", "Int32N": "", "Int64": "", "Int64N": "",
		"Uint32": "", "Uint32N": "", "Uint64": "", "Uint64N": "", "UintN": "", "Uint": "",
		"Float32": "", "Float64": "", "ExpFloat64": "", "NormFloat64": "",
		"Perm": "", "Shuffle": "", "N": "",
	},
	"crypto/rand": {"": "is hardware entropy and can never be seeded"},
	"os": {
		"Getpid":  "is per-process entropy that varies across runs",
		"Getppid": "is per-process entropy that varies across runs",
	},
}

const globalRandWhy = "draws from the global math/rand source, which is seeded per-process; use sim.Kernel.Rand() or an explicitly seeded rand.New"

// NoDeterm forbids wall-clock time and ambient randomness in simulation
// packages.  Every result the reproduction publishes rests on runs being
// a pure function of the seed; one time.Now or global rand.Intn breaks
// the golden byte-identity contract silently on the next workload.
var NoDeterm = &Analyzer{
	Name: "nodeterm",
	Doc:  "forbid wall-clock and ambient randomness in simulation packages",
	Run:  runNoDeterm,
}

func runNoDeterm(pass *Pass) error {
	if !isSimPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
			if !ok {
				return true
			}
			imported := pkgName.Imported().Path()
			bans, ok := nodetermBan[imported]
			if !ok {
				return true
			}
			why, banned := bans[sel.Sel.Name]
			if !banned {
				if why, banned = bans[""]; !banned {
					return true
				}
			}
			if why == "" && strings.HasPrefix(imported, "math/rand") {
				why = globalRandWhy
			}
			pass.Reportf(sel.Pos(), "%s.%s %s", pathBase(imported), sel.Sel.Name, why)
			return true
		})
	}
	return nil
}

func pathBase(p string) string {
	switch p {
	case "math/rand/v2":
		return "rand/v2"
	case "crypto/rand":
		return "crypto/rand"
	}
	return path.Base(p)
}
