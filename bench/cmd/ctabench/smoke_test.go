package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"ctacluster/internal/calib"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDefJSON `json:"end_to_end"`
	PerLayer []metricDefJSON `json:"per_layer"`
}

type metricDefJSON struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// toyWorkload builds a workload at toy size: one small app, one
// repetition, and half a second of serve-mix per run.
func toyWorkload(t *testing.T, name string) (workload, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	switch name {
	case "paper-sweep":
		return newSweepWorkload(rng, []string{"TeslaK40", "GTX980"}, []string{"NW"}, []string{"NW"}), 0.01
	case "trace-heavy":
		return newEngineWorkload(rng, crossJobs([]string{"NW"}, "TeslaK40", []int{0}, []bool{false, true})), 0.01
	case "stream-write-2die":
		return newEngineWorkload(rng, crossJobs([]string{"NW"}, "GTX1080", []int{0, 2}, []bool{false})), 0.01
	case "serve-mix":
		return newServeWorkload(rng, []string{"NW"}, 2, 100), 0.5
	}
	t.Fatalf("no toy size for workload %q", name)
	return nil, 0
}

// TestSmokeEveryWorkload runs every workload of BENCHMARK.json at toy
// size, untraced and traced, and checks that each run prints exactly
// the metrics the file names, with their units, and fails nothing.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, tc := range []struct {
		file []metricDefJSON
		code []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(tc.file) != len(tc.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark defines %d", len(tc.file), len(tc.code))
		}
		for i, d := range tc.code {
			if tc.file[i].Name != d.name || tc.file[i].Unit != d.unit {
				t.Errorf("BENCHMARK.json metric %d is %s (%s), the benchmark defines %s (%s)", i, tc.file[i].Name, tc.file[i].Unit, d.name, d.unit)
			}
		}
	}
	start := time.Now()
	for _, wl := range bf.Workloads {
		if _, err := newWorkload(wl.Name, 1); err != nil {
			t.Errorf("workload %s: %v", wl.Name, err)
		}
		for _, traced := range []bool{false, true} {
			w, secs := toyWorkload(t, wl.Name)
			out, err := run(w, options{workload: wl.Name, seconds: secs, trace: traced, traceDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", wl.Name, traced, err)
			}
			if out.Failed != 0 || !out.Correct || out.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", wl.Name, traced, out.Correct, out.Attempted, out.Failed)
			}
			defs := bf.EndToEnd
			if traced {
				defs = bf.PerLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: printed %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				if mv, ok := out.Metrics[d.Name]; !ok || mv.Unit != d.Unit {
					t.Errorf("%s traced=%t: metric %s printed as %+v (present %t), want unit %s", wl.Name, traced, d.Name, mv, ok, d.Unit)
				}
			}
			if !traced {
				for _, d := range defs {
					if out.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, d.Name, out.Metrics[d.Name].Value)
					}
				}
			} else if out.Metrics["trace.cpu_samples"].Value > 0 {
				sum := 0.0
				for _, l := range layers {
					sum += out.Metrics[l+".cpu_share"].Value
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("%s: CPU shares sum to %v, want 1 ± 0.01", wl.Name, sum)
				}
			}
			if _, err := json.Marshal(out); err != nil {
				t.Errorf("%s traced=%t: %v", wl.Name, traced, err)
			}
		}
	}
	t.Logf("smoke runs took %v", time.Since(start))
}

// perturbed returns a reference loader whose target for (archName, app)
// is one cycle off.
func perturbed(archName, app string) func() (*calib.Reference, error) {
	return func() (*calib.Reference, error) {
		ref, err := calib.Load()
		if err != nil {
			return nil, err
		}
		for i := range ref.Apps {
			if ref.Apps[i].Arch == archName && ref.Apps[i].App == app {
				ref.Apps[i].Cycles++
			}
		}
		return ref, nil
	}
}

// TestPerturbedTargetFails shows the calibration checks can fail: with
// one target a cycle off, the engine and sweep workloads count failed
// operations.
func TestPerturbedTargetFails(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eng := newEngineWorkload(rng, crossJobs([]string{"NW"}, "TeslaK40", []int{0}, []bool{false, true}))
	eng.loadRef = perturbed("TeslaK40", "NW")
	sweep := newSweepWorkload(rng, []string{"TeslaK40"}, []string{"NW"}, []string{"NW"})
	sweep.loadRef = perturbed("TeslaK40", "NW")
	for name, w := range map[string]workload{"engine": eng, "sweep": sweep} {
		out, err := run(w, options{seconds: 0.01})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Failed == 0 || out.Correct {
			t.Errorf("%s: a perturbed calibration target left correct=%t failed=%d of %d", name, out.Correct, out.Failed, out.Attempted)
		}
	}
}

// TestServeChecksFail shows the serve-mix checks can fail: a tampered
// miss body fails the warm repeats of its key, and a perturbed target
// fails the cold requests.
func TestServeChecksFail(t *testing.T) {
	w := newServeWorkload(rand.New(rand.NewSource(1)), []string{"NW"}, 2, 100)
	var setupTally tally
	if err := w.setup(&setupTally); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if setupTally.failed != 0 {
		t.Fatalf("setup failed %d checks: %v", setupTally.failed, setupTally.firstErr)
	}

	w.hotBody[0] = append([]byte(nil), w.hotBody[0]...)
	w.hotBody[0][len(w.hotBody[0])/2] ^= 1
	var tampered tally
	if _, err := w.measure(300*time.Millisecond, nil, &tampered); err != nil {
		t.Fatal(err)
	}
	if tampered.failed == 0 {
		t.Errorf("a tampered miss body failed none of %d requests", tampered.attempted)
	}

	ref, err := perturbed("TeslaK40", "NW")()
	if err != nil {
		t.Fatal(err)
	}
	w.ref = ref
	w.hotBody[0][len(w.hotBody[0])/2] ^= 1
	var wrongTarget tally
	if _, err := w.measure(300*time.Millisecond, nil, &wrongTarget); err != nil {
		t.Fatal(err)
	}
	if wrongTarget.failed == 0 {
		t.Errorf("a perturbed calibration target failed none of %d requests", wrongTarget.attempted)
	}
}
