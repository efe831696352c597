// Package failure describes fault-injection plans for fault-tolerance
// experiments.  The paper emulates failures by killing the MPI task, so
// detection is immediate (the TCP connection breaks as soon as the task
// dies); injectors here follow the same model, extended with whole-node
// and checkpoint-server kills so that the storage side of the system is a
// failure domain too, not just the compute ranks.
package failure

import (
	"fmt"
	"math/rand"
	"sort"

	"ftckpt/internal/sim"
)

// Kind selects what a failure event kills.
type Kind uint8

const (
	// KindRank kills one MPI task (the paper's model).  Zero value, so
	// plans written before node/server kills existed keep their meaning.
	KindRank Kind = iota
	// KindNode kills a whole machine: every rank placed on it and any
	// checkpoint server it hosts.
	KindNode
	// KindServer kills one checkpoint server; the images and logs it
	// stored are lost with it.
	KindServer
	// KindBuffer kills the node-local checkpoint buffer on one machine
	// (the top storage-hierarchy level): images staged there and not yet
	// drained are lost, but the node's ranks keep running — the failure
	// mode of a dying RAM disk or SSD, not of the host.
	KindBuffer
	// KindPFS kills one parallel-file-system target (the bottom
	// storage-hierarchy level): every image with a stripe on it becomes
	// unreadable.
	KindPFS
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindRank:
		return "rank"
	case KindNode:
		return "node"
	case KindServer:
		return "server"
	case KindBuffer:
		return "buffer"
	case KindPFS:
		return "pfs"
	default:
		return "unknown"
	}
}

// Event kills one component at a virtual time.  Kind selects the victim
// space: Rank for KindRank, Node for KindNode (also the victim machine
// for KindBuffer), Server for KindServer (also the victim target for
// KindPFS).
type Event struct {
	At   sim.Time
	Rank int
	Kind Kind
	// Node is the victim machine for KindNode and KindBuffer events.
	Node int
	// Server is the victim checkpoint server for KindServer events and
	// the victim PFS target for KindPFS events.
	Server int
}

// Victim returns the victim index in the event's own space.
func (e Event) Victim() int {
	switch e.Kind {
	case KindNode, KindBuffer:
		return e.Node
	case KindServer, KindPFS:
		return e.Server
	default:
		return e.Rank
	}
}

// String renders "kill <kind> <victim> @ <t>".
func (e Event) String() string {
	return fmt.Sprintf("kill %s %d @ %v", e.Kind, e.Victim(), e.At)
}

// Plan is a scripted failure schedule.
type Plan []Event

// Sorted returns the plan ordered by time without mutating the receiver.
// The sort is stable: events injected at the same instant fire in plan
// order, which keeps mixed-kind schedules deterministic.
func (p Plan) Sorted() Plan {
	q := append(Plan(nil), p...)
	sort.SliceStable(q, func(i, j int) bool { return q[i].At < q[j].At })
	return q
}

// Exponential draws failure inter-arrival times with the given MTTF,
// choosing victims uniformly — the memoryless failure model used for
// MTTF-vs-checkpoint-interval tuning studies (paper §6).  One instance
// models one component class; give ranks, nodes and checkpoint servers
// their own instances (distinct seeds) for independent per-component
// failure processes.
type Exponential struct {
	MTTF sim.Time
	rng  *rand.Rand
}

// NewExponential seeds an exponential failure source.
func NewExponential(mttf sim.Time, seed int64) *Exponential {
	return &Exponential{MTTF: mttf, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the delay until the next failure and the victim among n
// components.
func (e *Exponential) Next(n int) (sim.Time, int) {
	d := sim.Time(e.rng.ExpFloat64() * float64(e.MTTF))
	return d, e.rng.Intn(n)
}
