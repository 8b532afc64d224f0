package calib

import (
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/cli"
)

// TestFitAtCommittedValuesIsNoop: the reference curves were seeded at
// the committed latency tables, so the objective there is exactly zero
// and the descent must not move a single parameter — and must not touch
// the registry descriptor it was handed.
func TestFitAtCommittedValuesIsNoop(t *testing.T) {
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	ar, err := cli.Platform("GTX570")
	if err != nil {
		t.Fatal(err)
	}
	before := *ar
	res, err := Fit(ar, ref, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Before != 0 || res.After != 0 {
		t.Errorf("objective at committed values: before=%g after=%g, want 0", res.Before, res.After)
	}
	if moved := res.Changed(); len(moved) != 0 {
		t.Errorf("fit moved parameters at the optimum: %+v", moved)
	}
	if *ar != before {
		t.Error("Fit mutated the registry descriptor")
	}
	if res.Arch == ar {
		t.Error("FitResult.Arch aliases the input descriptor; want a copy")
	}
}

// TestFitRecoversPerturbedStart: starting the descent from a
// deliberately wrong latency table must strictly improve the objective
// and walk back to the committed values the reference was seeded from.
func TestFitRecoversPerturbedStart(t *testing.T) {
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	ar, err := cli.Platform("TeslaK40")
	if err != nil {
		t.Fatal(err)
	}
	start := *ar
	start.L1Latency += 2
	start.DRAMLatency -= 4
	res, err := Fit(ar, ref, FitOptions{Start: &start})
	if err != nil {
		t.Fatal(err)
	}
	if res.Before <= 0 {
		t.Fatalf("perturbed start scored %g; the perturbation is invisible to the objective", res.Before)
	}
	if res.After >= res.Before {
		t.Errorf("descent did not improve: before=%g after=%g", res.Before, res.After)
	}
	for _, p := range arch.LatencyParams(ar) {
		if got, want := p.Get(res.Arch), p.Get(ar); got != want {
			t.Errorf("%s fitted to %d, want the committed %d", p.Name, got, want)
		}
	}
	if res.After != 0 {
		t.Errorf("objective after recovery = %g, want 0", res.After)
	}
}

// TestFitDeterministic: the same fit twice must produce deeply equal
// results, evals count included. Determinism is structural (fixed parameter order,
// fixed offset ladder, strict improvement), so this holds exactly.
func TestFitDeterministic(t *testing.T) {
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	ar, err := cli.Platform("GTX980")
	if err != nil {
		t.Fatal(err)
	}
	start := *ar
	start.L2Latency += 3
	fit := func() *FitResult {
		res, err := Fit(ar, ref, FitOptions{Start: &start})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if first, again := fit(), fit(); !reflect.DeepEqual(first, again) {
		t.Error("two identical fits differ")
	}
}

// TestFitChipletVariantCoversRemoteHop: on a 2-die descriptor the
// descent fits RemoteHopLatency too, against the committed @2die curve.
func TestFitChipletVariantCoversRemoteHop(t *testing.T) {
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	mono, err := cli.Platform("GTX570")
	if err != nil {
		t.Fatal(err)
	}
	ar, err := arch.WithChiplets(mono, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(ar, ref, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range res.Params {
		names = append(names, p.Name)
	}
	if names[len(names)-1] != "RemoteHopLatency" {
		t.Errorf("fitted params %v; want RemoteHopLatency last on a chiplet descriptor", names)
	}
	if res.Before != 0 || len(res.Changed()) != 0 {
		t.Errorf("committed @2die table not at the optimum: before=%g moved=%+v", res.Before, res.Changed())
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

// TestFitUnknownPlatform: fitting a platform with no committed curve
// must fail up front with the known-curve list, not mid-descent.
func TestFitUnknownPlatform(t *testing.T) {
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	ghost := *arch.GTX570()
	ghost.Name = "GhostGPU"
	if _, err := Fit(&ghost, ref, FitOptions{}); err == nil {
		t.Error("fit accepted a platform with no reference curve")
	}
}
