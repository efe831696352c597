package mpi

import (
	"fmt"

	"ftckpt/internal/sim"
	"ftckpt/internal/simnet"
)

// World wires a set of MPI engines onto a simulated platform with no fault
// tolerance — the direct way to run an SPMD function, used by tests and
// the benchmark module's engine probes.  Every job,
// the no-checkpoint baselines included, runs through the ftpm dispatcher
// instead.
type World struct {
	K       *sim.Kernel
	Net     *simnet.Network
	Fab     *Fabric
	Engines []*Engine

	body func(e *Engine)
}

// NewWorld builds size processes over topo, placing rank r on node
// r/procsPerNode, all with profile prof.
func NewWorld(k *sim.Kernel, topo simnet.Topology, prof Profile, size, procsPerNode int) *World {
	if procsPerNode <= 0 {
		procsPerNode = 1
	}
	net := simnet.New(k, topo)
	if need := (size + procsPerNode - 1) / procsPerNode; need > net.NumNodes() {
		panic(fmt.Sprintf("mpi: %d processes at %d per node need %d nodes, platform has %d",
			size, procsPerNode, need, net.NumNodes()))
	}
	w := &World{K: k, Net: net, Fab: NewFabric(net)}
	w.Engines = make([]*Engine, size)
	for r := 0; r < size; r++ {
		w.Fab.Place(r, r/procsPerNode)
	}
	for r := 0; r < size; r++ {
		r := r
		k.Go(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			w.Engines[r] = NewEngine(r, size, p, prof, w.Fab)
			p.Yield() // let every engine bind before any rank's body sends
			w.body(w.Engines[r])
		})
	}
	return w
}

// Run executes body on every rank and runs the simulation to completion.
func (w *World) Run(body func(e *Engine)) error {
	w.body = body
	return w.K.Run()
}
