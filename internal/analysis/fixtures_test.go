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
		{"testdata/src/spanbalance/spans", "spanbalance.test/spans", SpanBalance},
		{"testdata/src/errtype/errs", "errtype.test/errs", ErrType},
		{"testdata/src/deadwaiver/sweep", "deadwaiver.test/sweep", MapIter},
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
