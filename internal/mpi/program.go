package mpi

import (
	"fmt"
	"reflect"
)

// Program is a resumable MPI application: a state machine advanced by
// Step, whose entire state lives in the exported fields of the
// implementing struct.  This is the checkpointable execution model of the
// reproduction (DESIGN.md §6): a goroutine stack cannot be serialized,
// so the coordinated checkpoint captures the Program struct plus the
// engine's pending-operation state while the process is parked, and a
// restarted process re-enters Step.
//
// Contract for implementations:
//
//   - Step executes one phase and returns true when the program has
//     completed.  A phase performs at most one blocking MPI operation
//     (Recv, Sendrecv, a collective, or Compute), and any code before that
//     operation must be idempotent — re-running the phase from its entry
//     state must not duplicate effects.  Plain Send never blocks, so a
//     phase may Send freely *after* its state no longer needs to be
//     re-entered, or use Sendrecv, whose send half is resume-safe.
//   - The concrete type is registered with RegisterProgram, and every
//     exported field has a layout in the state codec (AppendState).
//
// Footprint reports the modelled resident memory of the process, which
// sizes the checkpoint image exactly as system-level checkpointing does in
// the paper ("the size of the checkpoint images is directly proportional
// to the memory allocated").
type Program interface {
	Step(e *Engine) bool
	Footprint() int64
}

// programKinds is RegisterProgram's table, filled at start-up: each
// Program kind's factory by name, and its name by concrete type.
var programKinds = struct {
	byName map[string]func() Program
	byType map[reflect.Type]string
}{map[string]func() Program{}, map[reflect.Type]string{}}

// RegisterProgram makes the Program kind newProgram builds restorable from
// an image under name.  Call it from an init function; registering a name
// twice panics.
func RegisterProgram(name string, newProgram func() Program) {
	if _, dup := programKinds.byName[name]; dup {
		panic(fmt.Sprintf("mpi: RegisterProgram: %q registered twice", name))
	}
	programKinds.byName[name] = newProgram
	programKinds.byType[reflect.TypeOf(newProgram())] = name
}

// ProgramName returns the name p's kind was registered under, and whether
// it was.
func ProgramName(p Program) (string, bool) {
	name, ok := programKinds.byType[reflect.TypeOf(p)]
	return name, ok
}

// NewProgram returns a fresh Program of the kind registered under name,
// or nil when none is.
func NewProgram(name string) Program {
	if newProgram := programKinds.byName[name]; newProgram != nil {
		return newProgram()
	}
	return nil
}

// Finalize puts the engine in finalized mode: the inbox is drained and
// protocol packets are thereafter processed asynchronously, so a process
// whose program has completed keeps participating in marker exchanges —
// the analogue of the progress engine running inside MPI_Finalize.  Must
// be called from the process LP.
func (e *Engine) Finalize() {
	e.enterOp()
	e.exitOp()
	e.prof.Async = true
}
