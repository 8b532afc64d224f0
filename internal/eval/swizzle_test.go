package eval

import (
	"reflect"
	"strings"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/workloads"
)

// TestCompareSwizzleMM pins the shape and internal consistency of one
// comparison cell: the fixed mode order, the BSL row carrying the
// analyzer's identity prediction, clustered rows carrying none, and the
// best-mode bookkeeping agreeing with the cells.
func TestCompareSwizzleMM(t *testing.T) {
	ar := arch.TeslaK40()
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	c, err := compareSwizzleOne(ar, app, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// BSL, three non-identity swizzles in sorted order, CLU, CLU+best.
	wantLabels := []string{"BSL", "SWZ(groupcol)", "SWZ(hilbert)", "SWZ(xor)", "CLU", "CLU+SWZ(" + c.PredictedBest + ")"}
	var labels []string
	for _, cell := range c.Cells {
		labels = append(labels, cell.Label)
	}
	if !reflect.DeepEqual(labels, wantLabels) {
		t.Fatalf("cell labels = %v, want %v", labels, wantLabels)
	}

	if c.Window <= 0 || c.LineBytes <= 0 {
		t.Fatalf("analyzer context not recorded: window %d, lineBytes %d", c.Window, c.LineBytes)
	}
	for _, cell := range c.Cells {
		clustered := strings.HasPrefix(cell.Label, "CLU")
		if clustered && (cell.PredictedFetches != 0 || cell.PredictedShared != 0) {
			t.Errorf("%s: clustered modes must not carry a windowed prediction", cell.Label)
		}
		if !clustered && cell.PredictedFetches == 0 {
			t.Errorf("%s: unclustered modes must carry the analyzer's prediction", cell.Label)
		}
		if cell.Cycles <= 0 || cell.L2Txn == 0 {
			t.Errorf("%s: empty measurement: %+v", cell.Label, cell)
		}
	}
	bsl := c.Cells[0]
	if bsl.Speedup != 1.0 || bsl.L2Delta != 0 {
		t.Errorf("BSL must normalize to speedup 1.0 and delta 0: %+v", bsl)
	}

	// MeasuredBest must actually be the minimum-L2 unclustered mode,
	// with BSL standing in for identity.
	bestTxn := bsl.L2Txn
	best := "identity"
	for _, cell := range c.Cells[1:4] {
		if cell.L2Txn < bestTxn {
			bestTxn, best = cell.L2Txn, cell.Swizzle
		}
	}
	if c.MeasuredBest != best {
		t.Errorf("MeasuredBest = %s, want %s", c.MeasuredBest, best)
	}
	if c.PredictionHit != (c.PredictedBest == c.MeasuredBest) {
		t.Errorf("PredictionHit inconsistent: predicted %s, measured %s, hit %v",
			c.PredictedBest, c.MeasuredBest, c.PredictionHit)
	}

	// MM has heavy cross-CTA row reuse: at least one swizzle must cut
	// measured L2 read transactions below the row-major baseline.
	improved := false
	for _, cell := range c.Cells[1:4] {
		if cell.L2Txn < bsl.L2Txn {
			improved = true
		}
	}
	if !improved {
		t.Error("no swizzle reduced MM's L2 read transactions below baseline")
	}
}

// TestCompareSwizzleDeterministicAcrossWorkers pins the
// construction-order selection: the comparison is byte-identical for
// every Parallelism.
func TestCompareSwizzleDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker determinism sweep skipped in -short")
	}
	ar := arch.TeslaK40()
	app, err := workloads.New("SGM")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := compareSwizzleOne(ar, app, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := compareSwizzleOne(ar, app, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("CompareSwizzleMatrix differs between Parallelism 1 and 4")
	}
}

// TestCompareSwizzleRejectsOptionsSwizzle: the comparison sweeps every
// swizzle itself, so a pre-set Options.Swizzle is a caller bug.
func TestCompareSwizzleRejectsOptionsSwizzle(t *testing.T) {
	ar := arch.TeslaK40()
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compareSwizzleOne(ar, app, Options{Swizzle: "xor"}); err == nil {
		t.Fatal("CompareSwizzleMatrix accepted Options.Swizzle")
	}
}

// TestCompareSwizzleRejectsQuick: the comparison runs no throttle
// sweep for Quick to skip, so a set Options.Quick would be silently
// ignored; it is rejected instead.
func TestCompareSwizzleRejectsQuick(t *testing.T) {
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compareSwizzleOne(arch.TeslaK40(), app, Options{Quick: true}); err == nil {
		t.Fatal("CompareSwizzleMatrix accepted Options.Quick")
	} else if !strings.Contains(err.Error(), "Quick") {
		t.Errorf("quick rejection = %q, want it to name Options.Quick", err)
	}
}

// TestEvaluateAppWithSwizzle: Options.Swizzle rebases the whole scheme
// sweep onto the swizzled rasterization — BSL still normalizes to 1.0
// against the swizzled baseline, and the kernel names carry the suffix.
func TestEvaluateAppWithSwizzle(t *testing.T) {
	ar := arch.TeslaK40()
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := EvaluateApp(ar, app, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	swz, err := EvaluateApp(ar, app, Options{Quick: true, Swizzle: "hilbert"})
	if err != nil {
		t.Fatal(err)
	}
	if swz.Cells[BSL].Speedup != 1.0 {
		t.Errorf("swizzled BSL must normalize to 1.0, got %v", swz.Cells[BSL].Speedup)
	}
	// hilbert is result-affecting on MM: the swizzled baseline must not
	// alias the plain one.
	if swz.Cells[BSL].Cycles == plain.Cells[BSL].Cycles &&
		swz.Cells[BSL].L2Txn == plain.Cells[BSL].L2Txn {
		t.Error("Options.Swizzle had no effect on the BSL cell")
	}
	if _, err := EvaluateApp(ar, app, Options{Quick: true, Swizzle: "bogus"}); err == nil {
		t.Fatal("EvaluateApp accepted an unknown swizzle")
	}
}

// compareSwizzleOne runs CompareSwizzleMatrix on the single (ar, app)
// cell.
func compareSwizzleOne(ar *arch.Arch, app *workloads.App, opt Options) (*SwizzleComparison, error) {
	m, err := CompareSwizzleMatrix([]*arch.Arch{ar}, []*workloads.App{app}, opt, nil)
	if err != nil {
		return nil, err
	}
	return m[0], nil
}
