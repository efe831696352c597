package ftckpt

// Options.Servers is shorthand for a Storage with only the servers level.
// The shorthand and the spec it stands for must be the same run, byte for
// byte; and the replicated tiers the deleted flat replication fields used
// to describe must come out of their servers-level spelling unchanged.

import (
	"fmt"
	"runtime"
	"testing"
)

// shorthandRecorded holds the sha256 of the Report (%+v, registry pointer
// stripped), the metrics JSON and the Chrome trace of each
// chaosSweepPoints run, recorded with the replication knobs written in the
// flat form the servers level replaced.  The trace hashes were re-recorded
// when the streaming exporter became the only one; the report and metrics
// hashes are the originals.
var shorthandRecorded = [][3]string{
	{"fd2d490e4431ac9b6f439c38476228275b886c6e8fe55c539c109351c3dad58b",
		"f05c5fb467f68a1d806065a65754efbb379a79aec9ee25440fd82840519cc412",
		"228bc17c25bdba9cfc0af9ffb1ed64d242f21c57605092eb4277975cd39c0cb6"},
	{"f574f941d695fcd4510b1dcebbaa054cadf00741be3b00423236df0aad43208d",
		"f8eae6ca0c8c0591fec15db651aba9b9bc0710878c97db328ac68e2ab07b3440",
		"2a8bc3796fd56b62f117c7a52508656f2b435eb2310294ac72d0c47c9a213cdf"},
	{"804a351fdb1756e4f749535eeaf9ea55217a8f1f9dcc1c8689469c8e7241a8fb",
		"35971598e21a5bd5ff2bfa1ee3de8cc9f0fa6adf5c4cc781f6806997443f7ec1",
		"e97cfae3347d5edd6a88711f9ca6a79ca8621cca0bb6be4e40be9e99e0f4e49d"},
	{"f6f2710e3feabf22878c1ef7021003d606870956bc5132b1932ed0ea0fd4d2c5",
		"4c546f5593d036b44d3dacbc88915532ee3a6638b3e7cdc28af892d02cc94343",
		"6b9b1cedb633412c32c7928094bebccb8a8aaa48cd19e42e7f6d0e80f0922c95"},
}

// gridReplicatedReport is the Report of pinnedGrid under Pcl with two
// replicas per image, recorded the same way: 10 waves, 5250.2 MB stored.
const gridReplicatedReport = "{Completion:1m58.516531991s Waves:10 LocalCheckpoints:176 Restarts:0 " +
	"Messages:22300 PayloadMB:750.0022888183594 CheckpointMB:5250.233316421509 LoggedMessages:0 " +
	"LoggedMB:0 Checksum:64.00000000000003 Repairs:0 LostWork:0s RecoveredWork:1 ServerFailures:0 " +
	"Failovers:0 MeanWaveSpread:37.006µs MeanWaveTransfer:8.743009429s MeanWaveCycle:8.80762661s " +
	"Metrics:<nil> Attribution:<nil>}"

func TestServersShorthandIsOneLevel(t *testing.T) {
	for _, p := range []Protocol{Pcl, Vcl, Mlog} {
		t.Run(string(p), func(t *testing.T) {
			short := pinnedNP64(p)
			spelled := short
			spelled.Servers = 0
			spelled.Storage = &StorageSpec{Levels: []LevelSpec{{Kind: LevelServers, Servers: short.Servers}}}
			r1, m1, c1, e1 := goldenArtifacts(t, short)
			r2, m2, c2, e2 := goldenArtifacts(t, spelled)
			if r1 != r2 {
				t.Errorf("Report differs:\n  Servers %+v\n  Storage %+v", r1, r2)
			}
			if d := firstDivergence(m1, m2); d != "" {
				t.Errorf("metrics JSON differs, %s", d)
			}
			if d := firstDivergence(c1, c2); d != "" {
				t.Errorf("Chrome trace differs, %s", d)
			}
			if d := firstDivergence(e1, e2); d != "" {
				t.Errorf("event stream differs, %s", d)
			}
		})
	}

	if runtime.GOARCH != "amd64" {
		t.Skipf("the recorded runs are pinned for amd64, not %s", runtime.GOARCH)
	}
	for i, o := range chaosSweepPoints() {
		rep, met, trace, _ := goldenArtifacts(t, o)
		got := [3]string{sha([]byte(fmt.Sprintf("%+v", rep))), sha(met), sha(trace)}
		if got != shorthandRecorded[i] {
			t.Errorf("chaos point %d (%s): report/metrics/trace hashes %v, recorded %v",
				i, o.Protocol, got, shorthandRecorded[i])
		}
	}
	grid := pinnedGrid()
	grid.Protocol = Pcl
	grid.Storage = &StorageSpec{Levels: []LevelSpec{{Kind: LevelServers, Replicas: 2}}}
	rep, _, _, _ := goldenArtifacts(t, grid)
	if got := fmt.Sprintf("%+v", rep); got != gridReplicatedReport {
		t.Errorf("replicated grid run:\n  got      %s\n  recorded %s", got, gridReplicatedReport)
	}
}
