//go:build !race

package calib

// raceEnabled reports whether the race detector is compiled in; the
// simulator-heavy tests shrink under it.
const raceEnabled = false
