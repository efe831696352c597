package analysis

import "testing"

// TestFixtures runs each analyzer over its testdata fixture packages and
// compares diagnostics against the // want comments, analysistest-style.
// Fixture import paths are synthetic; their last segment is what opts a
// fixture into the simulation-package rules.
func TestFixtures(t *testing.T) {
	cases := []struct {
		dir      string
		path     string
		analyzer *Analyzer
	}{
		{"testdata/src/nodeterm/sim", "nodeterm.test/sim", NoDeterm},
		{"testdata/src/nodeterm/failure", "nodeterm.test/failure", NoDeterm},
		{"testdata/src/nodeterm/clock", "nodeterm.test/clock", NoDeterm},
		{"testdata/src/mapiter/sweep", "mapiter.test/sweep", MapIter},
		{"testdata/src/poolescape/pool", "poolescape.test/pool", PoolEscape},
		{"testdata/src/metricowner/met", "metricowner.test/met", MetricOwner},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.analyzer.Name+"/"+tc.path, func(t *testing.T) {
			for _, err := range CheckFixture(tc.dir, tc.path, tc.analyzer) {
				t.Error(err)
			}
		})
	}
}

// TestRepoClean is the lint gate: the whole module must pass every
// analyzer.  It runs where the tests run, so a violation fails tier-1
// rather than waiting for the CI lint job.  Most of its time is
// type-checking the tree from source.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := NewLoader().Load([]string{"ftckpt/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}
