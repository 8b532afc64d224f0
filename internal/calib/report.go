package calib

// The paper report: the accuracy side of every BENCH_*.json speed
// number. Per platform it runs the same eval.EvaluateAll sweep
// `evaluate` prints and scores, against paper.csv:
//
//   - each Figure 12/13 panel's CLU+TOT geometric mean, as the signed
//     ln(measured/paper) — symmetric in over- and under-shoot, so a
//     factor of two off scores the same either way;
//   - how many apps' swept CLU+TOT agent counts equal Table 2's optimal
//     agents;
//   - the Figure 2 latency points the microbenchmark shows (figure2.go)
//     at the committed latency table.
//
// Score is a pure function of the sweep, so unit tests drive it with
// synthetic results.

import (
	"fmt"
	"io"
	"math"

	"ctacluster/internal/api"
	"ctacluster/internal/arch"
	"ctacluster/internal/eval"
	"ctacluster/internal/workloads"
)

// PanelCell is one Figure 12/13 panel geometric mean on one platform.
type PanelCell struct {
	Figure   int     `json:"figure"`
	Panel    string  `json:"panel"`
	Paper    float64 `json:"paper"`
	Measured float64 `json:"measured"`
	// LnErr is ln(Measured/Paper): positive when the reproduction
	// overshoots the paper.
	LnErr float64 `json:"ln_err"`
}

// ArchScore is one platform's slice of the report.
type ArchScore struct {
	Arch string `json:"arch"`
	// Panels holds Figure 12's three panels, then Figure 13's, each in
	// eval.Panels order.
	Panels []PanelCell `json:"panels"`
	// OptAgentsMatch counts the apps whose swept CLU+TOT agent count
	// equals Table 2's optimal agents, out of Apps.
	OptAgentsMatch int `json:"opt_agents_match"`
	Apps           int `json:"apps"`
	// Figure2 holds the paper's Figure 2 points the microbenchmark
	// shows, and Figure2RMS their RMS relative error — the fitter's
	// objective at the committed latency table.
	Figure2    []Point `json:"figure2"`
	Figure2RMS float64 `json:"figure2_rms"`
}

// Report is the full paper report (the BENCH_calib.json schema). The
// metadata fields are constants stamped by Score, deliberately minus a
// date key, so the committed file is byte-reproducible and the calib CI
// job can regenerate and cmp it directly.
type Report struct {
	Benchmark   string      `json:"benchmark"`
	GeneratedBy string      `json:"generated_by"`
	Note        string      `json:"note"`
	Arches      []ArchScore `json:"arches"`
	// MeanAbsLnErr is the mean |ln(measured/paper)| over every panel
	// cell of every platform.
	MeanAbsLnErr float64 `json:"mean_abs_ln_err"`
}

// The metadata constants Score stamps into every report.
const (
	reportBenchmark = "ctacalib report -json (the reproduction scored against the paper: Figure 12/13 CLU+TOT panel geometric means as ln(measured/paper), Table 2 optimal-agent agreement, and Figure 2 latency-point errors at the committed latency tables)"
	reportGenerated = "go run ./cmd/ctacalib report -json"
	reportNote      = "Deterministic and dateless on purpose: a rerun of the generating command reproduces this file byte-identically at any -parallel setting (make calib-smoke regenerates and compares it). Paper values come from the hand-written internal/calib/testdata/paper.csv; measured values come from the same sweep `evaluate` prints."
)

// figureMetrics maps Figures 12 and 13 onto the cell metric their
// panel geometric means pool.
var figureMetrics = []struct {
	figure int
	metric func(eval.Cell) float64
}{
	{12, func(c eval.Cell) float64 { return c.Speedup }},
	{13, func(c eval.Cell) float64 { return c.L2Norm }},
}

// BuildReport runs the evaluate sweep and the Figure 2 microbenchmark on
// every platform and scores both against the paper. parallelism caps
// the simulations in flight; the report is byte-identical at every
// setting.
func BuildReport(platforms []*arch.Arch, ref *Reference, parallelism int) (*Report, error) {
	// Reject a platform the paper did not measure before sweeping it.
	for _, ar := range platforms {
		if _, err := ref.figure2Points(ar.Name, nil); err != nil {
			return nil, err
		}
	}
	results, err := eval.EvaluateAll(platforms, workloads.Table2(), eval.Options{Parallelism: parallelism}, nil)
	if err != nil {
		return nil, err
	}
	shown := make([]map[string]float64, len(platforms))
	for i, ar := range platforms {
		if shown[i], err = plateaus(ar); err != nil {
			return nil, err
		}
	}
	return Score(ref, results, shown)
}

// Score scores a sweep against the paper. shown[i] holds the Figure 2
// plateaus the microbenchmark showed on results[i]'s platform.
func Score(ref *Reference, results []eval.PlatformResult, shown []map[string]float64) (*Report, error) {
	rep := &Report{Benchmark: reportBenchmark, GeneratedBy: reportGenerated, Note: reportNote}
	cells := 0
	for i, pr := range results {
		a := ArchScore{Arch: pr.Arch.Name, Apps: len(pr.Results)}
		for _, fm := range figureMetrics {
			gms := eval.PanelGeoMeans(pr.Results, eval.CLUTOT, fm.metric)
			for pi, p := range eval.Panels {
				paper, err := ref.PaperFor(fm.figure, pr.Arch.Name, p.Name)
				if err != nil {
					return nil, err
				}
				c := PanelCell{Figure: fm.figure, Panel: p.Name, Paper: paper, Measured: gms[pi], LnErr: math.Log(gms[pi] / paper)}
				a.Panels = append(a.Panels, c)
				rep.MeanAbsLnErr += math.Abs(c.LnErr)
				cells++
			}
		}
		for _, r := range pr.Results {
			if r.Cells[eval.CLUTOT].Agents == r.App.OptAgents(pr.Arch.Gen) {
				a.OptAgentsMatch++
			}
		}
		pts, err := ref.figure2Points(pr.Arch.Name, shown[i])
		if err != nil {
			return nil, err
		}
		a.Figure2, a.Figure2RMS = pts, rms(pts)
		rep.Arches = append(rep.Arches, a)
	}
	if cells > 0 {
		rep.MeanAbsLnErr /= float64(cells)
	}
	return rep, nil
}

// WriteText renders the report as one block per platform.
func (r *Report) WriteText(w io.Writer) {
	cells := 0
	for _, a := range r.Arches {
		cells += len(a.Panels)
		fmt.Fprintf(w, "== %s ==\n", a.Arch)
		fmt.Fprintf(w, "%-6s %-20s %6s %9s %8s\n", "figure", "panel (CLU+TOT G-M)", "paper", "measured", "ln err")
		for _, c := range a.Panels {
			fmt.Fprintf(w, "%-6d %-20s %6.2f %9.2f %+8.4f\n", c.Figure, c.Panel, c.Paper, c.Measured, c.LnErr)
		}
		fmt.Fprintf(w, "opt agents: %d/%d apps' swept CLU+TOT agent counts equal Table 2\n", a.OptAgentsMatch, a.Apps)
		fmt.Fprintf(w, "Figure 2 (RMS %.4f):", a.Figure2RMS)
		for _, p := range a.Figure2 {
			fmt.Fprintf(w, "  %s paper %.0f sim %.0f (%+.2f%%)", p.Name, p.Paper, p.Sim, 100*p.RelErr)
		}
		fmt.Fprint(w, "\n\n")
	}
	fmt.Fprintf(w, "summary: mean |ln(measured/paper)| %.4f over %d panel cells\n", r.MeanAbsLnErr, cells)
}

// WriteJSON renders the report in the canonical JSON form (two-space
// indent, trailing newline — api.Marshal's contract), the exact bytes
// committed as BENCH_calib.json.
func (r *Report) WriteJSON(w io.Writer) error {
	return api.Encode(w, r)
}
