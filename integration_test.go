package ctacluster_test

import (
	"context"
	"testing"

	"ctacluster"
	"ctacluster/internal/arch"
	"ctacluster/internal/eval"
	"ctacluster/internal/locality"
	"ctacluster/internal/workloads"
)

// The integration tests pin the paper's qualitative results — the
// "shape" of the evaluation — rather than absolute numbers:
//
//  1. Algorithm-related apps gain from clustering and lose L2 traffic.
//  2. Cache-line-related apps gain on the 128B-line machines
//     (Fermi/Kepler) and are near-neutral on Maxwell/Pascal.
//  3. Streaming/data/write apps are near-neutral everywhere.
//  4. Redirection alone is unreliable; agent-based clustering is not.
//  5. MM specifically: hit rate rises, L2 txns fall, speedup stays small.

func evalApps(t *testing.T, ar *arch.Arch, names []string, opt eval.Options) map[string]*eval.AppResult {
	t.Helper()
	out := map[string]*eval.AppResult{}
	for _, n := range names {
		app, err := workloads.New(n)
		if err != nil {
			t.Fatal(err)
		}
		r, err := eval.EvaluateApp(ar, app, opt)
		if err != nil {
			t.Fatal(err)
		}
		out[n] = r
	}
	return out
}

func TestShapeAlgorithmCategoryGains(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	ar := arch.GTX570()
	res := evalApps(t, ar, []string{"KMN", "NN", "IMD", "SGM"}, eval.Options{})
	var speedups, l2 []float64
	for n, r := range res {
		best := r.Best()
		speedups = append(speedups, best.Speedup)
		l2 = append(l2, best.L2Norm)
		if best.L2Norm > 1.05 {
			t.Errorf("%s: best scheme increased L2 transactions (%.2f)", n, best.L2Norm)
		}
	}
	if gm := eval.GeoMean(speedups); gm < 1.05 {
		t.Errorf("algorithm-category geomean speedup = %.2f, want clear gains", gm)
	}
	if gm := eval.GeoMean(l2); gm > 0.9 {
		t.Errorf("algorithm-category geomean L2 = %.2f, want a clear reduction", gm)
	}
}

func TestShapeCacheLineCategoryIsArchitectureDependent(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	apps := []string{"ATX", "MVT", "BC"}
	fermi := evalApps(t, arch.GTX570(), apps, eval.Options{})
	pascal := evalApps(t, arch.GTX1080(), apps, eval.Options{})
	var fs, ps []float64
	for _, n := range apps {
		fs = append(fs, fermi[n].Best().Speedup)
		ps = append(ps, pascal[n].Best().Speedup)
	}
	fgm, pgm := eval.GeoMean(fs), eval.GeoMean(ps)
	// The paper's headline architecture effect: 128B lines make
	// cache-line locality harvestable; 32B lines do not.
	if fgm < 1.3 {
		t.Errorf("Fermi cache-line geomean = %.2f, want strong gains", fgm)
	}
	if pgm > fgm-0.2 {
		t.Errorf("Pascal (%.2f) should trail Fermi (%.2f) clearly on cache-line apps", pgm, fgm)
	}
}

func TestShapeStreamingIsNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	ar := arch.TeslaK40()
	res := evalApps(t, ar, []string{"BS", "SAD", "MON"}, eval.Options{Quick: true})
	for n, r := range res {
		for _, s := range []eval.Scheme{eval.CLU, eval.PFHTOT} {
			sp := r.Cells[s].Speedup
			if sp < 0.75 || sp > 1.35 {
				t.Errorf("%s %v speedup = %.2f, streaming should stay near 1.0", n, s, sp)
			}
		}
	}
}

func TestShapeMMHitRateUpSpeedupFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	ar := arch.GTX570()
	res := evalApps(t, ar, []string{"MM"}, eval.Options{Quick: true})["MM"]
	bsl, clu := res.Cells[eval.BSL], res.Cells[eval.CLU]
	if clu.L1Hit <= bsl.L1Hit {
		t.Errorf("MM clustering should raise the L1 hit rate (%.2f -> %.2f)", bsl.L1Hit, clu.L1Hit)
	}
	if clu.L2Norm >= 1.0 {
		t.Errorf("MM clustering should cut L2 transactions (%.2f)", clu.L2Norm)
	}
	if clu.Speedup > 1.35 || clu.Speedup < 0.7 {
		t.Errorf("MM speedup = %.2f; the paper found MM's gains modest (Section 5.2-(6))", clu.Speedup)
	}
}

func TestShapeFrameworkCategorization(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	ar := arch.GTX570()
	// The framework's estimate should match the Table 2 ground truth on
	// clear-cut members of each class.
	cases := map[string][]locality.Category{
		"NN":  {locality.Algorithm, locality.CacheLine}, // exploitable either way
		"ATX": {locality.Algorithm, locality.CacheLine},
		"BS":  {locality.Streaming},
		"BFS": {locality.Data, locality.Write},
	}
	for name, accept := range cases {
		app, _ := workloads.New(name)
		a, err := locality.Analyze(context.Background(), app, ar)
		if err != nil {
			t.Fatal(err)
		}
		ok := false
		for _, c := range accept {
			if a.Category == c {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s categorized as %v, want one of %v", name, a.Category, accept)
		}
		if a.Category.Exploitable() != app.Category().Exploitable() {
			t.Errorf("%s: exploitability verdict %v, ground truth %v",
				name, a.Category.Exploitable(), app.Category().Exploitable())
		}
	}
}

func TestShapeReuseQuantification(t *testing.T) {
	// Figure 3's qualitative claim: inter-CTA reuse is a significant
	// fraction of reuse on average, and streaming apps sit at the
	// bottom while algorithm apps sit high.
	apps := workloads.Figure3()
	var sum float64
	inter := map[string]float64{}
	for _, app := range apps {
		q := ctacluster.Quantify(app, 32)
		inter[app.Name()] = q.InterPct()
		sum += q.InterPct()
	}
	avg := sum / float64(len(apps))
	if avg < 0.30 || avg > 0.95 {
		t.Errorf("average inter-CTA share = %.2f, want a significant fraction (paper: 45%%)", avg)
	}
	if inter["MM"] < inter["BS"] {
		t.Error("MM should show more inter-CTA reuse than BlackScholes")
	}
}

func TestShapeEndToEndAllAppsOneArch(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	// Every Table 2 app must survive the full six-scheme matrix without
	// simulator errors on at least one platform per L1 flavour.
	for _, ar := range []*arch.Arch{arch.TeslaK40(), arch.GTX980()} {
		for _, app := range workloads.Table2() {
			if _, err := eval.EvaluateApp(ar, app, eval.Options{Quick: true}); err != nil {
				t.Errorf("%s on %s: %v", app.Name(), ar.Name, err)
			}
		}
	}
}
