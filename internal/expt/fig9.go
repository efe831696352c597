package expt

import (
	"fmt"
	"time"

	"ftckpt/internal/ftpm"
	"ftckpt/internal/platform"
	"ftckpt/internal/sim"
)

// gridConfig assembles a checkpoint-free grid job with same-cluster
// checkpoint servers.
func gridConfig(np int, o Options) (ftpm.Config, error) {
	lay, err := platform.Grid5000Layout(np, 2)
	if err != nil {
		return ftpm.Config{}, err
	}
	return ftpm.Config{
		NP:           np,
		ProcsPerNode: 2,
		Servers:      lay.Servers,
		ServerOf:     lay.ServerOf,
		ServerNodes:  lay.ServerNodes,
		ServiceNode:  lay.ServiceNode,
		Placement:    lay.Placement,
		Topology:     lay.Topo,
		Profile:      platform.PclSock,
		NewProgram:   newBT(o.btClass()),
		Seed:         o.Seed,
	}, nil
}

// Fig9Row is one interval point of Fig. 9: BT class B with 400 processes
// distributed over the grid, blocking protocol.
type Fig9Row struct {
	Interval sim.Time
	Waves    int
	Time     sim.Time
}

// Fig9 reproduces "Impact of checkpoint frequency on blocking
// checkpointing at large scale (400 processes)".  Expected shape: the
// number of waves is proportional to the checkpoint frequency, and the
// completion time remains linear in the number of waves even on a grid.
func Fig9(o Options) ([]Fig9Row, error) {
	const np = 400
	// Calibration: our grid BT model completes ~10x faster than the
	// paper's testbed (the flow model under-penalizes BT's WAN
	// synchronization), so the interval sweep is the paper's divided by
	// ten — preserving the 1–6 waves-per-run regime the figure studies.
	// See EXPERIMENTS.md.
	intervals := []sim.Time{0, 18 * time.Second, 12 * time.Second, 9 * time.Second,
		6 * time.Second, 4500 * time.Millisecond, 3 * time.Second}
	if o.Quick {
		// Quick grid runs last a few virtual seconds; pick intervals that
		// still fit several waves after scaleInterval's /10.
		intervals = []sim.Time{0, 8 * time.Second, 4 * time.Second}
	}
	cfg, err := gridConfig(np, o)
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	var points []point
	for _, iv := range intervals {
		rows = append(rows, Fig9Row{Interval: iv})
		points = append(points, point{fmt.Sprintf("fig9 np=%d interval=%v", np, iv),
			[]ftpm.Config{every(cfg, ftpm.ProtoPcl, o.scaleInterval(iv))}})
	}
	return reduce(o, points, rows, func(row *Fig9Row, r []ftpm.Result) {
		row.Waves, row.Time = r[0].WavesCommitted, r[0].Completion
	})
}

// Fig10Row is one process count of Fig. 10: BT class B over the grid,
// without checkpointing and with a wave every 60 s.
type Fig10Row struct {
	NP     int
	NoCkpt sim.Time
	Ckpt60 sim.Time
	Waves  int
}

// Fig10 reproduces "Impact of large scale on blocking checkpointing".
// Expected shape: the no-checkpoint execution slows at the largest scale
// (remote clusters join), giving the checkpointed execution time for more
// waves, whose cost stays proportional to the wave count.  Vcl cannot be
// run at this scale (its dispatcher's select() limit — enforced by
// ftpm.Config.Validate).
func Fig10(o Options) ([]Fig10Row, error) {
	sizes := []int{100, 169, 256, 324, 400, 529}
	if o.Quick {
		sizes = []int{100, 256}
	}
	// The paper's 60 s interval, divided by the grid calibration factor of
	// ten (see Fig9).
	iv := 6 * time.Second
	if o.Quick {
		iv = 8 * time.Second // scaleInterval divides by ten again
	}
	var rows []Fig10Row
	var points []point
	for _, np := range sizes {
		cfg, err := gridConfig(np, o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{NP: np})
		points = append(points, point{fmt.Sprintf("fig10 np=%d", np),
			[]ftpm.Config{cfg, every(cfg, ftpm.ProtoPcl, o.scaleInterval(iv))}})
	}
	return reduce(o, points, rows, func(row *Fig10Row, r []ftpm.Result) {
		row.NoCkpt, row.Ckpt60, row.Waves = r[0].Completion, r[1].Completion, r[1].WavesCommitted
	})
}
