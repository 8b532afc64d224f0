package calib

import (
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/cli"
)

// fitFor fits the named platform against the committed reference.
func fitFor(t *testing.T, name string, opt FitOptions) (*arch.Arch, *FitResult) {
	t.Helper()
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	ar, err := cli.Platform(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(ar, ref, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ar, res
}

// TestFitLeavesRegistryUntouched: from the committed table the descent
// strictly improves the objective toward the paper's Figure 2 points,
// returns a copy, and leaves the registry descriptor as it was.
func TestFitLeavesRegistryUntouched(t *testing.T) {
	ar, err := cli.Platform("GTX570")
	if err != nil {
		t.Fatal(err)
	}
	before := *ar
	_, res := fitFor(t, "GTX570", FitOptions{})
	if *ar != before {
		t.Error("Fit mutated the registry descriptor")
	}
	if res.Arch == ar {
		t.Error("FitResult.Arch aliases the input descriptor; want a copy")
	}
	if !(res.After < res.Before) {
		t.Errorf("objective %g -> %g; want a strict improvement from the committed table", res.Before, res.After)
	}
	// GTX570's L1 is unsectored, so the microbenchmark shows no L2
	// point, and nothing else reads DRAMInterval: neither may move.
	for _, p := range res.Changed() {
		if p.Name == "L2Latency" || p.Name == "DRAMInterval" {
			t.Errorf("fit moved %s (%d -> %d), which no shown point depends on", p.Name, p.From, p.To)
		}
	}
}

// TestFitRecoversPerturbedStart: a descent started from a deliberately
// wrong latency table reaches the same table as one started from the
// committed values.
func TestFitRecoversPerturbedStart(t *testing.T) {
	ar, fromCommitted := fitFor(t, "TeslaK40", FitOptions{})
	start := *ar
	start.L1Latency += 2
	start.DRAMLatency -= 4
	_, res := fitFor(t, "TeslaK40", FitOptions{Start: &start})
	if res.After >= res.Before {
		t.Errorf("descent did not improve: before=%g after=%g", res.Before, res.After)
	}
	for _, p := range arch.LatencyParams(ar) {
		if got, want := p.Get(res.Arch), p.Get(fromCommitted.Arch); got != want {
			t.Errorf("%s fitted to %d from the perturbed start, %d from the committed one", p.Name, got, want)
		}
	}
	if res.After != fromCommitted.After {
		t.Errorf("objective after recovery = %g, want %g", res.After, fromCommitted.After)
	}
}

// TestFitDeterministic: the same fit twice must produce deeply equal
// results, evals count included. Determinism is structural (fixed
// parameter order, fixed offset ladder, strict improvement), so this
// holds exactly.
func TestFitDeterministic(t *testing.T) {
	ar, err := cli.Platform("GTX980")
	if err != nil {
		t.Fatal(err)
	}
	start := *ar
	start.L2Latency += 3
	_, first := fitFor(t, "GTX980", FitOptions{Start: &start})
	_, again := fitFor(t, "GTX980", FitOptions{Start: &start})
	if !reflect.DeepEqual(first, again) {
		t.Error("two identical fits differ")
	}
}

// TestFitRejectsMismatchedStart: a Start descriptor for a different
// platform is a caller bug, not a silent cross-platform seed.
func TestFitRejectsMismatchedStart(t *testing.T) {
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	ar, err := cli.Platform("GTX570")
	if err != nil {
		t.Fatal(err)
	}
	other, err := cli.Platform("GTX980")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fit(ar, ref, FitOptions{Start: other}); err == nil {
		t.Error("fit accepted a Start descriptor for a different platform")
	}
}

// TestFitUnknownPlatform: fitting a platform paper.csv has no Figure 2
// points for must fail up front, not mid-descent.
func TestFitUnknownPlatform(t *testing.T) {
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	ghost := *arch.GTX570()
	ghost.Name = "GhostGPU"
	if _, err := Fit(&ghost, ref, FitOptions{}); err == nil {
		t.Error("fit accepted a platform with no paper points")
	}
}

// TestFitRejectsChipletVariant: the paper measured no multi-die GPU, so
// a 2-die descriptor has no Figure 2 points to fit against.
func TestFitRejectsChipletVariant(t *testing.T) {
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	ar, err := arch.WithChiplets(arch.GTX570(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fit(ar, ref, FitOptions{}); err == nil {
		t.Errorf("fit accepted %s, which the paper has no numbers for", ar.Name)
	}
}
