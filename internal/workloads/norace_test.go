//go:build !race

package workloads

// raceEnabled reports whether the race detector is compiled in; race
// builds change allocation counts, so allocation tests skip under it.
const raceEnabled = false
