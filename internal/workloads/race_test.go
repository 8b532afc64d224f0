//go:build race

package workloads

// raceEnabled reports whether the race detector is compiled in; see
// norace_test.go.
const raceEnabled = true
