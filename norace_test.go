//go:build !race

package ftckpt

const raceEnabled = false
