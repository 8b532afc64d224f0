package eval

import (
	"math"
	"slices"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/workloads"
)

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		BSL: "BSL", RD: "RD", CLU: "CLU", CLUTOT: "CLU+TOT",
		CLUTOTBPS: "CLU+TOT+BPS", PFHTOT: "PFH+TOT",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %s, want %s", s, s.String(), w)
		}
	}
	if len(Schemes) != 6 {
		t.Error("there are six schemes in Figure 12")
	}
}

func TestGeoMean(t *testing.T) {
	if gm := GeoMean(nil); gm != 1 {
		t.Errorf("empty geomean = %v", gm)
	}
	if gm := GeoMean([]float64{2, 8}); math.Abs(gm-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %v, want 4", gm)
	}
	if gm := GeoMean([]float64{0, -1}); gm != 1 {
		t.Errorf("non-positive inputs should be skipped: %v", gm)
	}
}

// legacyThrottleCandidates is the sweep list evaluateApp used before
// core.ThrottleCandidates existed, kept verbatim as the reference.
func legacyThrottleCandidates(max int) []int {
	set := map[int]bool{}
	var out []int
	add := func(v int) {
		if v >= 1 && v <= max && !set[v] {
			set[v] = true
			out = append(out, v)
		}
	}
	add(1)
	add(2)
	add(3)
	add(4)
	add(max / 2)
	add(max)
	return out
}

// TestThrottleCandidates pins that the voting tries exactly the
// candidates the sweep always did: core.ThrottleCandidates is max (the
// unthrottled incumbent, measured as the CLU cell) followed by the
// legacy list minus max, in order.
func TestThrottleCandidates(t *testing.T) {
	for max := 1; max <= 64; max++ {
		want := []int{max}
		for _, x := range legacyThrottleCandidates(max) {
			if x != max {
				want = append(want, x)
			}
		}
		if got := core.ThrottleCandidates(max); !slices.Equal(got, want) {
			t.Errorf("max=%d: candidates %v, want %v", max, got, want)
		}
	}
}

func TestEvaluateAppQuick(t *testing.T) {
	ar := arch.TeslaK40()
	app, err := workloads.New("BS")
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateApp(ar, app, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Schemes {
		c := res.Cells[s]
		if c.Scheme != s {
			t.Fatalf("cell %d carries scheme %v, want %v", s, c.Scheme, s)
		}
		if c.Cycles <= 0 {
			t.Errorf("%v: cycles = %d", s, c.Cycles)
		}
	}
	bsl := res.Cells[BSL]
	if bsl.Speedup != 1.0 || bsl.L2Norm != 1.0 {
		t.Errorf("baseline should normalise to 1.0: %+v", bsl)
	}
	// Streaming app: clustering should be roughly neutral, within 2x
	// either way (it must not explode or deadlock).
	if c := res.Cells[CLU]; c.Speedup < 0.5 || c.Speedup > 2 {
		t.Errorf("BS CLU speedup = %v, expected near-neutral", c.Speedup)
	}
	if res.Best().Speedup < bsl.Speedup*0.5 {
		t.Error("Best() returned something worse than half of baseline")
	}
}

func TestEvaluateThrottleSweepNeverWorseThanCLU(t *testing.T) {
	ar := arch.GTX570()
	app, err := workloads.New("KMN")
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateApp(ar, app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[CLUTOT].Cycles > res.Cells[CLU].Cycles {
		t.Errorf("the sweep must never pick a slower configuration than CLU: %d vs %d",
			res.Cells[CLUTOT].Cycles, res.Cells[CLU].Cycles)
	}
	if res.Cells[CLUTOT].Agents < 1 {
		t.Error("CLU+TOT should report its agent count")
	}
}

func TestEvaluateList(t *testing.T) {
	ar := arch.GTX980()
	apps := []*workloads.App{}
	for _, n := range []string{"NW", "SAD"} {
		a, _ := workloads.New(n)
		apps = append(apps, a)
	}
	var progressed int
	res, err := EvaluateAll([]*arch.Arch{ar}, apps, Options{Quick: true}, func(string) { progressed++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Results) != 2 || progressed != 2 {
		t.Errorf("results = %+v, progress calls = %d", res, progressed)
	}
}

func TestFrameworkAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the probe pipeline for all apps")
	}
	ar := arch.GTX570()
	acc, err := EvaluateFramework(ar, workloads.Table2(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(acc.Verdicts) != 24 {
		t.Fatalf("verdicts = %d", len(acc.Verdicts))
	}
	// The Figure 5 routing decision (exploitable vs not) is the one the
	// optimizations depend on; require solid accuracy there.
	if acc.ExploitRate() < 0.8 {
		for _, v := range acc.Verdicts {
			if !v.ExploitOK {
				t.Logf("  %s: truth %v, estimated %v", v.App, v.Truth, v.Estimated)
			}
		}
		t.Errorf("exploitability accuracy = %.2f, want >= 0.8", acc.ExploitRate())
	}
	// The dependence analysis must reproduce Table 2's partition column.
	if acc.DirectionRate() != 1.0 {
		t.Errorf("direction accuracy = %.2f, want 1.0", acc.DirectionRate())
	}
}

func TestBestPicksTopClusteringScheme(t *testing.T) {
	r := &AppResult{Cells: [PFHTOT + 1]Cell{
		BSL:       {Scheme: BSL, Speedup: 1.0},
		RD:        {Scheme: RD, Speedup: 3.0}, // RD is not in the clustering family
		CLU:       {Scheme: CLU, Speedup: 1.2},
		CLUTOT:    {Scheme: CLUTOT, Speedup: 1.5},
		CLUTOTBPS: {Scheme: CLUTOTBPS, Speedup: 1.4},
	}}
	if best := r.Best(); best.Scheme != CLUTOT {
		t.Errorf("Best() = %v, want CLU+TOT", best.Scheme)
	}
	// All schemes below baseline: Best falls back to BSL.
	worse := &AppResult{Cells: [PFHTOT + 1]Cell{
		BSL: {Scheme: BSL, Speedup: 1.0},
		CLU: {Scheme: CLU, Speedup: 0.8},
	}}
	if best := worse.Best(); best.Scheme != BSL {
		t.Errorf("Best() = %v, want BSL fallback", best.Scheme)
	}
}

func TestFrameworkAccuracyRatesEmpty(t *testing.T) {
	var acc FrameworkAccuracy
	if acc.CategoryRate() != 0 || acc.ExploitRate() != 0 || acc.DirectionRate() != 0 {
		t.Error("empty accuracy should rate 0")
	}
}
