package eval_test

// Determinism is the contract that makes the parallel evaluation
// runner trustworthy: fanning the Figure-12 sweep out across workers
// must not change a single metric. These tests pin that contract three
// ways — a deep serial-vs-parallel comparison over every cell metric, a
// byte-identity check on the rendered Figure 12/13 tables, and a golden
// snapshot of one app/arch pair so silent metric drift (from any PR,
// parallel or not) fails CI.

import (
	"strings"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/eval"
	"ctacluster/internal/report"
	"ctacluster/internal/workloads"
)

// sweepApps picks the determinism-sweep size: the full Table 2 set
// normally, a representative subset under -short or -race (the race
// detector makes the full instrumented matrix ~10x slower). The subset
// spans the locality categories so the parallel path still exercises
// every scheme, including throttling and bypass.
func sweepApps(t *testing.T) []*workloads.App {
	t.Helper()
	if !testing.Short() && !raceEnabled {
		return workloads.Table2()
	}
	var apps []*workloads.App
	for _, n := range []string{"KMN", "MM", "ATX", "HST", "NW", "MON"} {
		a, err := workloads.New(n)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a)
	}
	return apps
}

// compareResults fails the test on the first metric that differs
// between two sweeps, naming the app, scheme and field.
func compareResults(t *testing.T, serial, parallel []*eval.AppResult) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("result count differs: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.App.Name() != p.App.Name() {
			t.Fatalf("result %d order differs: serial %s, parallel %s", i, s.App.Name(), p.App.Name())
		}
		for _, scheme := range eval.Schemes {
			sc, pc := s.Cells[scheme], p.Cells[scheme]
			// Cell is a flat value struct (ints and float64s), so ==
			// demands bit-exact equality of every metric: cycles, L1/L2
			// counters, occupancy and the chosen throttle degree.
			if sc != pc {
				t.Errorf("%s %s differs:\n  serial:   %+v\n  parallel: %+v", s.App.Name(), scheme, sc, pc)
			}
		}
	}
}

// evaluate runs the sweep on one platform and returns its per-app
// results.
func evaluate(t *testing.T, ar *arch.Arch, apps []*workloads.App, opt eval.Options) []*eval.AppResult {
	t.Helper()
	all, err := eval.EvaluateAll([]*arch.Arch{ar}, apps, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return all[0].Results
}

// TestParallelSweepMatchesSerial runs the Figure-12 sweep serially and
// with Parallelism=8 and requires deep equality of every metric.
func TestParallelSweepMatchesSerial(t *testing.T) {
	ar := arch.TeslaK40()
	apps := sweepApps(t)

	serial := evaluate(t, ar, apps, eval.Options{})
	parallel := evaluate(t, ar, apps, eval.Options{Parallelism: 8})
	compareResults(t, serial, parallel)

	// The rendered Figure 12 and 13 tables must be byte-identical: this
	// is the "output byte-identical to the serial path" guarantee that
	// cmd/evaluate inherits.
	var sb, pb strings.Builder
	for _, tab := range append(report.Figure12(ar, serial), report.Figure13(ar, serial)...) {
		tab.Write(&sb)
	}
	for _, tab := range append(report.Figure12(ar, parallel), report.Figure13(ar, parallel)...) {
		tab.Write(&pb)
	}
	if sb.String() != pb.String() {
		t.Error("rendered Figure 12/13 tables differ between serial and parallel sweeps")
	}
}

// TestEvaluateAllMatchesPerPlatformSerial checks the cross-platform
// fan-out: EvaluateAll over several architectures must reproduce the
// serial per-platform sweeps exactly, platforms and apps both in
// presentation order.
func TestEvaluateAllMatchesPerPlatformSerial(t *testing.T) {
	platforms := []*arch.Arch{arch.GTX570(), arch.GTX1080()}
	apps := sweepApps(t)
	if len(apps) > 4 {
		apps = apps[:4] // two platforms: keep the matrix affordable
	}

	all, err := eval.EvaluateAll(platforms, apps, eval.Options{Parallelism: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(platforms) {
		t.Fatalf("EvaluateAll returned %d platforms, want %d", len(all), len(platforms))
	}
	for i, pr := range all {
		if pr.Arch.Name != platforms[i].Name {
			t.Fatalf("platform %d is %s, want %s", i, pr.Arch.Name, platforms[i].Name)
		}
		compareResults(t, evaluate(t, platforms[i], apps, eval.Options{}), pr.Results)
	}
}

// goldenMMTeslaK40 pins the full scheme matrix for MM on TeslaK40.
// These values were produced by the serial evaluator at the commit that
// introduced this test; any change — a simulator tweak, a scheme
// change, a parallelism bug — must be reviewed and re-pinned
// deliberately, never absorbed silently.
var goldenMMTeslaK40 = [eval.PFHTOT + 1]eval.Cell{
	eval.BSL:       {Scheme: eval.BSL, Cycles: 55579, Speedup: 1, L2Txn: 359040, L2Norm: 1, L1Hit: 0.12767650462962962, AchOcc: 0.9591608341279979, OccNorm: 1, Agents: 0},
	eval.RD:        {Scheme: eval.RD, Cycles: 52788, Speedup: 1.0528718648177615, L2Txn: 313388, L2Norm: 0.8728498217468805, L1Hit: 0.23697916666666666, AchOcc: 0.9334899345810916, OccNorm: 0.9732360844672683, Agents: 0},
	eval.CLU:       {Scheme: eval.CLU, Cycles: 48667, Speedup: 1.1420264244765448, L2Txn: 283308, L2Norm: 0.7890708556149733, L1Hit: 0.2349537037037037, AchOcc: 0.9409154731816904, OccNorm: 0.9809777877733145, Agents: 2},
	eval.CLUTOT:    {Scheme: eval.CLUTOT, Cycles: 48667, Speedup: 1.1420264244765448, L2Txn: 283308, L2Norm: 0.7890708556149733, L1Hit: 0.2349537037037037, AchOcc: 0.9409154731816904, OccNorm: 0.9809777877733145, Agents: 2},
	eval.CLUTOTBPS: {Scheme: eval.CLUTOTBPS, Cycles: 48667, Speedup: 1.1420264244765448, L2Txn: 283308, L2Norm: 0.7890708556149733, L1Hit: 0.2349537037037037, AchOcc: 0.9409154731816904, OccNorm: 0.9809777877733145, Agents: 2},
	eval.PFHTOT:    {Scheme: eval.PFHTOT, Cycles: 48684, Speedup: 1.1416276394708733, L2Txn: 283548, L2Norm: 0.7897393048128343, L1Hit: 0.23571788776024782, AchOcc: 0.9413140525292362, OccNorm: 0.9813933378389175, Agents: 2},
}

// TestGoldenMMTeslaK40 re-evaluates MM on TeslaK40 — serially and in
// parallel — and compares every cell against the pinned snapshot.
func TestGoldenMMTeslaK40(t *testing.T) {
	ar := arch.TeslaK40()
	for _, parallelism := range []int{1, 8} {
		app, err := workloads.New("MM")
		if err != nil {
			t.Fatal(err)
		}
		r, err := eval.EvaluateApp(ar, app, eval.Options{Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range eval.Schemes {
			if got, want := r.Cells[scheme], goldenMMTeslaK40[scheme]; got != want {
				t.Errorf("parallelism %d: %s drifted from golden:\n  got:  %+v\n  want: %+v",
					parallelism, scheme, got, want)
			}
		}
	}
}
