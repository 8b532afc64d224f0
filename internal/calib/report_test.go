package calib

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/eval"
	"ctacluster/internal/workloads"
)

// syntheticSweep is a GTX570 sweep in which every app's CLU+TOT cell
// has speedup 2 and normalized L2 transactions 0.5, and the first
// matchAgents apps picked Table 2's optimal agent count.
func syntheticSweep(ar *arch.Arch, matchAgents int) []eval.PlatformResult {
	var results []*eval.AppResult
	for i, app := range workloads.Table2() {
		agents := 0
		if i < matchAgents {
			agents = app.OptAgents(ar.Gen)
		}
		results = append(results, &eval.AppResult{App: app, Arch: ar, Cells: map[eval.Scheme]eval.Cell{
			eval.CLUTOT: {Scheme: eval.CLUTOT, Speedup: 2, L2Norm: 0.5, Agents: agents},
		}})
	}
	return []eval.PlatformResult{{Arch: ar, Results: results}}
}

func TestScoreSyntheticSweep(t *testing.T) {
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	ar := arch.GTX570()
	shown := []map[string]float64{{"L1Latency": 125, "DRAMLatency": 588}}
	rep, err := Score(ref, syntheticSweep(ar, 5), shown)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Arches) != 1 {
		t.Fatalf("%d arches, want 1", len(rep.Arches))
	}
	a := rep.Arches[0]
	// paper.csv's GTX570 rows: speedups 1.46/1.47/1, L2 ratios 0.45/0.2/0.9.
	want := []PanelCell{
		{12, "algorithm-related", 1.46, 2, math.Log(2 / 1.46)},
		{12, "cache-line-related", 1.47, 2, math.Log(2 / 1.47)},
		{12, "data/write/streaming", 1, 2, math.Log(2)},
		{13, "algorithm-related", 0.45, 0.5, math.Log(0.5 / 0.45)},
		{13, "cache-line-related", 0.2, 0.5, math.Log(0.5 / 0.2)},
		{13, "data/write/streaming", 0.9, 0.5, math.Log(0.5 / 0.9)},
	}
	var mean float64
	for i, w := range want {
		got := a.Panels[i]
		if got.Figure != w.Figure || got.Panel != w.Panel || got.Paper != w.Paper ||
			math.Abs(got.Measured-w.Measured) > 1e-12 || math.Abs(got.LnErr-w.LnErr) > 1e-12 {
			t.Errorf("panel %d = %+v, want %+v", i, got, w)
		}
		mean += math.Abs(w.LnErr) / float64(len(want))
	}
	if math.Abs(rep.MeanAbsLnErr-mean) > 1e-12 {
		t.Errorf("mean |ln err| = %g, want %g", rep.MeanAbsLnErr, mean)
	}
	if a.OptAgentsMatch != 5 || a.Apps != len(workloads.Table2()) {
		t.Errorf("agent agreement %d/%d, want 5/%d", a.OptAgentsMatch, a.Apps, len(workloads.Table2()))
	}
	// The L2 point is not shown on an unsectored L1, so only L1 and
	// DRAM are scored: 0% and +5%.
	wantPts := []Point{{"L1Latency", 125, 125, 0}, {"DRAMLatency", 560, 588, 0.05}}
	if len(a.Figure2) != len(wantPts) {
		t.Fatalf("Figure 2 points %+v, want %+v", a.Figure2, wantPts)
	}
	for i, w := range wantPts {
		if got := a.Figure2[i]; got.Name != w.Name || got.Paper != w.Paper || got.Sim != w.Sim || math.Abs(got.RelErr-w.RelErr) > 1e-12 {
			t.Errorf("Figure 2 point %d = %+v, want %+v", i, got, w)
		}
	}
	if wantRMS := 0.05 / math.Sqrt2; math.Abs(a.Figure2RMS-wantRMS) > 1e-12 {
		t.Errorf("Figure 2 RMS = %g, want %g", a.Figure2RMS, wantRMS)
	}
}

// TestScoreNeedsPaperNumbers: a platform the paper did not measure has
// nothing to score against.
func TestScoreNeedsPaperNumbers(t *testing.T) {
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	twoDie, err := arch.WithChiplets(arch.GTX570(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ar := range []*arch.Arch{arch.GTX750Ti(), twoDie} {
		if _, err := Score(ref, syntheticSweep(ar, 0), []map[string]float64{{}}); err == nil {
			t.Errorf("%s scored without paper numbers", ar.Name)
		}
	}
}

// TestReportRenders: the text form carries every cell and the summary;
// the JSON form round-trips to the same report.
func TestReportRenders(t *testing.T) {
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Score(ref, syntheticSweep(arch.GTX570(), 0), []map[string]float64{{"L1Latency": 125}})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	rep.WriteText(&text)
	for _, sub := range []string{
		"== GTX570 ==",
		"13     cache-line-related     0.20      0.50  +0.9163",
		"opt agents: 0/24",
		"L1Latency paper 125 sim 125 (+0.00%)",
		"over 6 panel cells",
	} {
		if !strings.Contains(text.String(), sub) {
			t.Errorf("text report lacks %q:\n%s", sub, text.String())
		}
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, rep) {
		t.Errorf("JSON round trip changed the report:\n%s", js.Bytes())
	}
}

// TestPlateausShown: the microbenchmark shows L1 and DRAM on every GPU
// and L2 only through the second sector of a sectored L1.
func TestPlateausShown(t *testing.T) {
	for _, c := range []struct {
		ar   *arch.Arch
		want map[string]float64
	}{
		{arch.GTX570(), map[string]float64{"L1Latency": 125, "DRAMLatency": 563}},
		{arch.GTX980(), map[string]float64{"L1Latency": 131, "L2Latency": 255, "DRAMLatency": 471}},
	} {
		got, err := plateaus(c.ar)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s plateaus = %v, want %v", c.ar.Name, got, c.want)
		}
	}
}
