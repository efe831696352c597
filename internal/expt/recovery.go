package expt

import (
	"fmt"
	"time"

	"ftckpt/internal/failure"
	"ftckpt/internal/ftpm"
	"ftckpt/internal/mpi"
	"ftckpt/internal/nas"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
)

// RecoveryRow is one failure count of the recovery-mode comparison:
// the same scripted rank kills run once under the paper's
// rollback-restart and once under ULFM-style in-job repair, on the
// Jacobi kernel with partner snapshots.
type RecoveryRow struct {
	Kills int
	// RestartTime and Restarts are the rollback-restart run's completion
	// and rollback episodes (one per kill).
	RestartTime sim.Time
	Restarts    int
	// UlfmTime is the in-job recovery run's completion; Repairs counts
	// failures survived without a restart, UlfmRestarts any fallbacks.
	UlfmTime     sim.Time
	Repairs      int
	UlfmRestarts int
	// LostWork is the total virtual compute time the repairs redid;
	// RecoveredWork the fraction of total rank-time not redone.
	LostWork      sim.Time
	RecoveredWork float64
}

// Recovery compares the two recovery modes under identical seeded kill
// schedules: Jacobi on 16 processes under Pcl, kills spread across the
// middle of the run.  Expected shape: in-job repair completes faster at
// every kill count (survivors redo one snapshot interval instead of the
// whole stretch since the last committed wave, and no relaunch delay is
// paid), with zero restarts while spares and partner snapshots hold.
func Recovery(o Options) ([]RecoveryRow, error) {
	const np = 16
	iters := 1200
	if o.Quick {
		iters = 300
	}
	base := ftpm.Config{
		NP:         np,
		Protocol:   ftpm.ProtoPcl,
		Interval:   o.scaleInterval(100 * time.Millisecond),
		Servers:    2,
		Topology:   platform.EthernetCluster(np + 3),
		Profile:    platform.PclSock,
		NewProgram: func(rank, size int) mpi.Program { return nas.NewJacobi(rank, size, np*8, iters) },
		FTEvery:    10,
		Seed:       o.Seed,
	}
	// The failure-free completion anchors the kill schedule, so kills land
	// mid-run at every -quick setting.
	probe, err := o.runPoints([]point{{"recovery probe", []ftpm.Config{base}}})
	if err != nil {
		return nil, err
	}
	total := probe[0][0].Completion

	var rows []RecoveryRow
	var points []point
	for _, n := range []int{1, 2, 3} {
		restart := base
		for i := 0; i < n; i++ {
			restart.Failures = append(restart.Failures, failure.Event{
				At:   total / sim.Time(n+1) * sim.Time(i+1),
				Rank: (3*i + 1) % np,
			})
		}
		ulfm := restart
		ulfm.Recovery = ftpm.RecoveryULFM
		rows = append(rows, RecoveryRow{Kills: n})
		points = append(points, point{fmt.Sprintf("recovery kills=%d", n), []ftpm.Config{restart, ulfm}})
	}
	return reduce(o, points, rows, func(row *RecoveryRow, r []ftpm.Result) {
		restart, ulfm := r[0], r[1]
		row.RestartTime, row.Restarts = restart.Completion, restart.Restarts
		row.UlfmTime, row.Repairs, row.UlfmRestarts = ulfm.Completion, ulfm.Repairs, ulfm.Restarts
		row.LostWork = ulfm.LostWork
		if ulfm.Completion > 0 {
			row.RecoveredWork = 1 - float64(ulfm.LostWork)/(float64(np)*float64(ulfm.Completion))
		}
	})
}
