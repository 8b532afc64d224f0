package api_test

// JSON-schema goldens: the shared response structs must render
// byte-identically run after run — the CLI -json modes, the daemon's
// responses and its byte-level result cache all assume it. Regenerate
// deliberately with `go test ./internal/api -run Golden -update` and
// review the diff.

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ctacluster/internal/api"
	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/eval"
	"ctacluster/internal/locality"
	"ctacluster/internal/report"
	"ctacluster/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the API golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (regenerate with -update and review):\n got: %s\nwant: %s", name, got, want)
	}
}

func mustApp(t *testing.T, name string) *workloads.App {
	t.Helper()
	a, err := workloads.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGoldenSimulateResponse(t *testing.T) {
	app := mustApp(t, "MM")
	ar := arch.TeslaK40()
	res, err := engine.Run(engine.DefaultConfig(ar), app)
	if err != nil {
		t.Fatal(err)
	}
	b, err := api.Marshal(api.SimulateResponseFrom(app.Name(), ar.Name, "BSL", "", res))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "simulate_mm_teslak40.json", b)
}

func TestGoldenSweepResponse(t *testing.T) {
	ar := arch.TeslaK40()
	apps := []*workloads.App{mustApp(t, "MM"), mustApp(t, "NN")}
	sweep, err := eval.EvaluateAll([]*arch.Arch{ar}, apps, eval.Options{Quick: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := api.SweepResponseFrom(sweep)
	b, err := api.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep_mm_nn_teslak40_quick.json", b)
}

func TestGoldenOptimizeResponse(t *testing.T) {
	app := mustApp(t, "MM")
	ar := arch.TeslaK40()
	plan, err := locality.Optimize(context.Background(), app, ar)
	if err != nil {
		t.Fatal(err)
	}
	b, err := api.Marshal(api.OptimizeResponseFrom(app, ar, plan))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "optimize_mm_teslak40.json", b)
}

func TestGoldenTableResponses(t *testing.T) {
	t1, err := api.Marshal(report.Table1(arch.All()))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.json", t1)
	t2, err := api.Marshal(report.Table2(workloads.Table2()))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2.json", t2)
}

// TestMarshalDeterministic pins the byte-identity property the result
// cache depends on: marshalling the same logical value twice — from
// independently computed results — yields identical bytes.
func TestMarshalDeterministic(t *testing.T) {
	ar := arch.GTX980()
	app := mustApp(t, "KMN")
	render := func() []byte {
		res, err := engine.Run(engine.DefaultConfig(ar), app)
		if err != nil {
			t.Fatal(err)
		}
		b, err := api.Marshal(api.SimulateResponseFrom(app.Name(), ar.Name, "BSL", "", res))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Fatal("identical runs marshalled to different bytes")
	}
}

// TestGoldenSwizzleCompareResponse pins the BENCH_swizzle.json element
// schema on one cell, so a renamed or re-tagged field fails the
// tier-1 suite rather than only the full-matrix cmp gate.
func TestGoldenSwizzleCompareResponse(t *testing.T) {
	m, err := eval.CompareSwizzleMatrix([]*arch.Arch{arch.TeslaK40()}, []*workloads.App{mustApp(t, "MM")}, eval.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := api.Marshal(api.SwizzleCompareResponse{Comparisons: m})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "swizzle_compare_mm_teslak40.json", b)
}

// TestGoldenChipletCompareResponse pins the BENCH_chiplet.json element
// schema on one 2-die cell.
func TestGoldenChipletCompareResponse(t *testing.T) {
	ar, err := arch.WithChiplets(arch.TeslaK40(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := eval.CompareChipletMatrix([]*arch.Arch{ar}, []*workloads.App{mustApp(t, "MM")}, eval.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := api.Marshal(api.ChipletCompareResponse{Comparisons: m})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chiplet_compare_mm_teslak40_2die.json", b)
}
