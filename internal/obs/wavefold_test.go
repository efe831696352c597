package obs

import (
	"testing"
	"time"

	"ftckpt/internal/sim"
)

// waveEv is one step of a wave-fold stream: a local snapshot, a durable
// image, a commit, or one of the two events that abandon the open waves.
type waveEv struct {
	ty   EventType
	rank int // -1: global (commit, restart); ≥ 0: that rank
	wave int
	at   sim.Time
}

func (e waveEv) event() Event {
	return Event{Type: e.ty, T: e.at, Rank: e.rank, Wave: e.wave, Channel: -1, Node: -1, Server: -1}
}

const sec = time.Second

// TestWaveFold pins how the MetricsSink turns snapshots, durable images
// and commits into the three wave-phase histograms — every behaviour the
// deleted per-wave recorder (internal/trace) had a test for.
func TestWaveFold(t *testing.T) {
	// phases is what one committed wave must have observed.
	type phases struct{ spread, transfer, cycle sim.Time }
	cases := []struct {
		name   string
		stream []waveEv
		want   []phases // in commit order
	}{
		{name: "empty stream"},
		{
			// First and last snapshot, last durable image, commit.
			name: "lifecycle",
			stream: []waveEv{
				{EvLocalCkptEnd, 0, 1, 10 * sec}, {EvLocalCkptEnd, 1, 1, 11 * sec}, {EvLocalCkptEnd, 2, 1, 12 * sec},
				{EvImageDurable, 0, 1, 15 * sec}, {EvImageDurable, 2, 1, 18 * sec},
				{EvWaveCommit, -1, 1, 19 * sec},
			},
			want: []phases{{2 * sec, 6 * sec, 9 * sec}},
		},
		{
			name: "uncommitted wave observes nothing",
			stream: []waveEv{
				{EvLocalCkptEnd, 0, 1, 1 * sec}, {EvImageDurable, 0, 1, 2 * sec}, {EvWaveCommit, -1, 1, 3 * sec},
				{EvLocalCkptEnd, 0, 2, 4 * sec},
			},
			want: []phases{{0, 1 * sec, 2 * sec}},
		},
		{
			name: "means over three waves",
			stream: []waveEv{
				{EvLocalCkptEnd, 0, 1, 10 * sec}, {EvLocalCkptEnd, 1, 1, 11 * sec}, {EvImageDurable, 1, 1, 15 * sec}, {EvWaveCommit, -1, 1, 16 * sec},
				{EvLocalCkptEnd, 0, 2, 20 * sec}, {EvLocalCkptEnd, 1, 2, 22 * sec}, {EvImageDurable, 1, 2, 25 * sec}, {EvWaveCommit, -1, 2, 26 * sec},
				{EvLocalCkptEnd, 0, 3, 30 * sec}, {EvLocalCkptEnd, 1, 3, 33 * sec}, {EvImageDurable, 1, 3, 35 * sec}, {EvWaveCommit, -1, 3, 36 * sec},
			},
			want: []phases{{1 * sec, 4 * sec, 6 * sec}, {2 * sec, 3 * sec, 6 * sec}, {3 * sec, 2 * sec, 6 * sec}},
		},
		{
			// Wave 2 is under way when a failure rolls the job back to
			// wave 1; the relaunched incarnation reuses the number 2.  The
			// aborted attempt's snapshots must not drag the re-executed
			// wave's first snapshot back before the restart.
			name: "re-executed wave not smeared",
			stream: []waveEv{
				{EvLocalCkptEnd, 0, 1, 10 * sec}, {EvImageDurable, 0, 1, 12 * sec}, {EvWaveCommit, -1, 1, 13 * sec},
				{EvLocalCkptEnd, 0, 2, 20 * sec}, {EvLocalCkptEnd, 1, 2, 21 * sec},
				{EvRankKilled, 1, 1, 22 * sec}, {EvRestartBegin, -1, 1, 23 * sec}, {EvRestartEnd, -1, 1, 24 * sec},
				{EvLocalCkptEnd, 0, 2, 40 * sec}, {EvLocalCkptEnd, 1, 2, 41 * sec}, {EvImageDurable, 1, 2, 45 * sec},
				{EvWaveCommit, -1, 2, 46 * sec},
			},
			want: []phases{{0, 2 * sec, 3 * sec}, {1 * sec, 4 * sec, 6 * sec}},
		},
		{
			name: "restart drops only open waves",
			stream: []waveEv{
				{EvLocalCkptEnd, 0, 1, 1 * sec}, {EvImageDurable, 0, 1, 2 * sec}, {EvWaveCommit, -1, 1, 2 * sec},
				{EvLocalCkptEnd, 0, 2, 3 * sec}, {EvImageDurable, 0, 2, 4 * sec}, {EvWaveCommit, -1, 2, 4 * sec},
				{EvLocalCkptEnd, 0, 3, 5 * sec},
				{EvRestartBegin, -1, 2, 6 * sec},
				{EvWaveCommit, -1, 3, 7 * sec}, // nothing left of wave 3 to observe
			},
			want: []phases{{0, 1 * sec, 1 * sec}, {0, 1 * sec, 1 * sec}},
		},
		{
			// An in-job repair keeps the recovery line but re-executes the
			// open wave in a new generation, like a restart.
			name: "repair drops open waves",
			stream: []waveEv{
				{EvLocalCkptEnd, 0, 1, 10 * sec}, {EvLocalCkptEnd, 1, 1, 11 * sec},
				{EvRepairBegin, -1, 0, 12 * sec}, {EvImageDurable, 0, 1, 13 * sec}, {EvRepairEnd, -1, 0, 14 * sec},
				{EvLocalCkptEnd, 0, 1, 20 * sec}, {EvLocalCkptEnd, 1, 1, 22 * sec}, {EvImageDurable, 1, 1, 25 * sec},
				{EvWaveCommit, -1, 1, 26 * sec},
			},
			want: []phases{{2 * sec, 3 * sec, 6 * sec}},
		},
		{
			// Message logging: every rank numbers its own checkpoints and
			// commits them alone, so wave 1 of rank 0 and wave 1 of rank 3
			// have nothing to do with each other, and a rank's restart is
			// not a rollback of anybody else.
			name: "per-rank commits observe nothing",
			stream: []waveEv{
				{EvLocalCkptEnd, 0, 1, 1 * sec}, {EvLocalCkptEnd, 3, 1, 2 * sec},
				{EvImageDurable, 0, 1, 3 * sec}, {EvWaveCommit, 0, 1, 3 * sec},
				{EvRestartBegin, 2, 0, 4 * sec}, {EvRestartEnd, 2, 0, 5 * sec},
				{EvImageDurable, 3, 1, 6 * sec}, {EvWaveCommit, 3, 1, 6 * sec},
				{EvLocalCkptEnd, 0, 2, 7 * sec}, {EvImageDurable, 0, 2, 8 * sec}, {EvWaveCommit, 0, 2, 8 * sec},
			},
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMetrics()
			s := NewMetricsSink(m)
			commits := 0
			for _, e := range tc.stream {
				s.Emit(e.event())
				if e.ty == EvWaveCommit {
					commits++
				}
			}
			var want phases
			for _, p := range tc.want {
				want.spread += p.spread
				want.transfer += p.transfer
				want.cycle += p.cycle
			}
			n := sim.Time(max(len(tc.want), 1)) // an empty histogram's mean is 0
			for _, h := range []struct {
				name string
				sum  sim.Time
			}{{MWaveSpread, want.spread}, {MWaveTransfer, want.transfer}, {MWaveCycle, want.cycle}} {
				got := m.Hist(h.name)
				if got.Count != int64(len(tc.want)) || got.Sum != h.sum || got.Mean() != h.sum/n {
					t.Errorf("%s observed %d waves summing to %v (mean %v), want %d summing to %v",
						h.name, got.Count, got.Sum, got.Mean(), len(tc.want), h.sum)
				}
			}
			if got := m.Counter(MWavesCommitted); got != int64(commits) {
				t.Errorf("%d commits counted, want %d", got, commits)
			}
		})
	}
}

// TestWaveFoldLeavesNoState: a commit, global or per-rank, takes its wave
// out of the sink, so a long uncoordinated run (Mlog: hundreds of
// checkpoints per rank) does not grow a map nobody reads.
func TestWaveFoldLeavesNoState(t *testing.T) {
	s := NewMetricsSink(NewMetrics())
	for w := 1; w <= 100; w++ {
		for r := 0; r < 4; r++ {
			at := sim.Time(w*10+r) * sec
			s.Emit(waveEv{EvLocalCkptEnd, r, w, at}.event())
			s.Emit(waveEv{EvImageDurable, r, w, at + sec}.event())
			s.Emit(waveEv{EvWaveCommit, r, w, at + sec}.event())
		}
	}
	if len(s.waves) != 0 {
		t.Fatalf("%d waves still held after every rank committed every checkpoint", len(s.waves))
	}
	s.Emit(waveEv{EvLocalCkptEnd, 0, 7, 2000 * sec}.event())
	s.Emit(waveEv{EvWaveCommit, -1, 7, 2001 * sec}.event())
	if len(s.waves) != 0 {
		t.Fatalf("%d waves still held after a global commit", len(s.waves))
	}
}
