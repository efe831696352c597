package analysis

import "path"

// Per-analyzer package scopes for the v2 analyzers.  The v1 analyzers
// share the simPackages set (nodeterm.go) — everything that executes
// inside the simulation.  The v2 analyzers are narrower or differently
// shaped, so each declares its own set of package base names:
//
//   - spanbalance covers every package that emits Begin/End span events:
//     the protocols, the checkpoint store hierarchy, the process manager
//     (repair and restart windows), the mpi engine, the NAS kernels'
//     FT hooks, and simnet's drain spans.
//   - errtype covers the layers that produce or classify typed FT errors
//     and the checkpoint-commit paths whose errors must not be dropped.
//     The expt harnesses are included for error discipline even though
//     they are exempt from nodeterm (they time the simulator from the
//     outside, so they may read the wall clock).
//
// Fixture packages opt in the same way the v1 fixtures do: the loader
// assigns them synthetic import paths ("spanbalance.test/spans") whose
// base name matches a scoped package.
var analyzerScopes = map[string]map[string]bool{
	"spanbalance": {
		"ftpm":   true,
		"ckpt":   true,
		"pcl":    true,
		"vcl":    true,
		"mlog":   true,
		"mpi":    true,
		"nas":    true,
		"simnet": true,
		"spans":  true, // fixture base name
	},
	"errtype": {
		"mpi":    true,
		"ftpm":   true,
		"ckpt":   true,
		"chaos":  true,
		"nas":    true,
		"expt":   true,
		"errs":   true, // fixture base name
	},
}

// inScope reports whether the named analyzer runs over the package.
func inScope(analyzer, pkgPath string) bool {
	return analyzerScopes[analyzer][path.Base(pkgPath)]
}
