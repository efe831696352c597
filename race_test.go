//go:build race

package ftckpt

// raceEnabled reports that the race detector is on; it instruments
// allocations, so TestAllocCeilings does not apply.
const raceEnabled = true
