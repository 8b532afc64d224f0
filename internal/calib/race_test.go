//go:build race

package calib

// raceEnabled reports whether the race detector is compiled in; see
// norace_test.go.
const raceEnabled = true
