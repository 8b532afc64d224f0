//go:build !race

package engine_test

// raceEnabled reports whether the race detector is compiled in; the
// differential sweeps shrink their platform and workload sets under
// -race so the fully instrumented matrices stay within CI budgets.
const raceEnabled = false
