package calib

// The correlation report: the accuracy side of every BENCH_*.json speed
// number. For each (platform, app) cell it simulates the baseline and
// the CLU clustering scheme (maximum allowable agents — the one
// evaluated column that needs no throttle sweep, so the report stays
// deterministic and cheap) and scores cycles and speedup against the
// committed reference targets; per platform it also reports the
// Figure 2 curve RMS at the committed latency table. At the seed
// reference the errors are exactly zero; any engine change that moves
// a simulated number shows up here as a signed per-cell error — the
// accuracy delta `make calib-smoke` pins next to each PR's speed delta.

import (
	"fmt"
	"io"
	"math"

	"ctacluster/internal/api"
	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/eval"
	"ctacluster/internal/kernel"
	"ctacluster/internal/workloads"
)

// ReportOptions tunes a report run. Parallelism is execution-only: the
// rendered report is byte-identical at every setting.
type ReportOptions struct {
	Parallelism int
}

// AppCell is one app's accuracy scores on one platform. Errors are
// signed relative deviations from the reference ((sim-ref)/ref), so a
// +2% cycle error means the engine got 2% slower than the committed
// accuracy baseline on this cell.
type AppCell struct {
	App        string  `json:"app"`
	SimCycles  int64   `json:"sim_cycles"`
	RefCycles  int64   `json:"ref_cycles"`
	CycleErr   float64 `json:"cycle_err"`
	SimSpeedup float64 `json:"sim_speedup"`
	RefSpeedup float64 `json:"ref_speedup"`
	SpeedupErr float64 `json:"speedup_err"`
}

// ArchReport is one platform's slice of the report.
type ArchReport struct {
	Arch string `json:"arch"`
	// CurveRMS is the Figure 2 microbench curve error at the committed
	// latency table — the fitter's objective, 0 at the seed reference.
	CurveRMS float64   `json:"curve_rms"`
	Cells    []AppCell `json:"cells"`
	// Aggregates over this platform's cells.
	MeanAbsCycleErr   float64 `json:"mean_abs_cycle_err"`
	MeanAbsSpeedupErr float64 `json:"mean_abs_speedup_err"`
	MaxAbsCycleErr    float64 `json:"max_abs_cycle_err"`
	MaxAbsSpeedupErr  float64 `json:"max_abs_speedup_err"`
}

// Summary aggregates the whole matrix.
type Summary struct {
	Cells             int     `json:"cells"`
	MeanAbsCycleErr   float64 `json:"mean_abs_cycle_err"`
	MeanAbsSpeedupErr float64 `json:"mean_abs_speedup_err"`
	// Within5 / Within10 count cells whose cycle AND speedup errors
	// are both within ±5% / ±10% of the reference.
	Within5  int `json:"within_5pct"`
	Within10 int `json:"within_10pct"`
}

// Report is the full correlation report (the BENCH_calib.json schema).
// The metadata fields are constants stamped by BuildReport, matching
// the other BENCH_*.json files' self-description — deliberately minus a
// date key, so the committed file is byte-reproducible and the calib CI
// job can regenerate and cmp it directly.
type Report struct {
	Benchmark   string       `json:"benchmark"`
	GeneratedBy string       `json:"generated_by"`
	Note        string       `json:"note"`
	Arches      []ArchReport `json:"arches"`
	Summary     Summary      `json:"summary"`
}

// The metadata constants BuildReport stamps into every report. They are
// part of the bytes BENCH_calib.json and the report goldens pin.
const (
	reportBenchmark = "ctacalib report -json (per-app cycle and speedup error vs the committed calibration reference, plus per-platform Figure 2 curve RMS at the committed latency tables)"
	reportGenerated = "go run ./cmd/ctacalib report -json"
	reportNote      = "Deterministic and dateless on purpose: a rerun of the generating command reproduces this file byte-identically at any -parallel setting (make calib-smoke regenerates and compares it). Errors are signed relative deviations (sim-ref)/ref; the reference was seeded from the simulator at the committed latency tables, so all-zero errors mean the engine still reproduces its calibration baseline exactly, and any nonzero cell is an accuracy drift introduced after seeding."
)

// simCell is one simulated (platform, app) outcome.
type simCell struct {
	cycles  int64
	speedup float64
}

// simMatrix simulates baseline and CLU for every (platform, app) cell,
// fanned out over opt.Parallelism workers; the returned matrix is
// platform-major in input order and byte-identical at every worker
// count (each job owns its slot; all math happens after Each returns).
func simMatrix(platforms []*arch.Arch, apps []*workloads.App, opt ReportOptions) ([][]simCell, error) {
	// Job 2c runs cell c's baseline, job 2c+1 its clustering.
	runs := make([]*engine.Result, 2*len(platforms)*len(apps))
	err := eval.NewRunner(opt.Parallelism).Each(len(runs), func(j int) error {
		ar, app := platforms[j/2/len(apps)], apps[j/2%len(apps)]
		var k kernel.Kernel = app
		label := "BSL"
		if j%2 == 1 {
			clu, err := core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: app.Partition()})
			if err != nil {
				return fmt.Errorf("calib: %s/%s: %w", app.Name(), ar.Name, err)
			}
			k, label = clu, "CLU"
		}
		r, err := engine.Run(engine.DefaultConfig(ar), k)
		if err != nil {
			return fmt.Errorf("calib: %s/%s %s: %w", app.Name(), ar.Name, label, err)
		}
		runs[j] = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([][]simCell, len(platforms))
	for pi := range platforms {
		out[pi] = make([]simCell, len(apps))
		for ai := range apps {
			c := 2 * (pi*len(apps) + ai)
			base, clu := runs[c], runs[c+1]
			cell := simCell{cycles: base.Cycles}
			if clu.Cycles > 0 {
				cell.speedup = float64(base.Cycles) / float64(clu.Cycles)
			}
			out[pi][ai] = cell
		}
	}
	return out, nil
}

// relErr is the signed relative deviation of sim from ref; a zero
// reference scores zero rather than dividing by it.
func relErr(sim, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	return (sim - ref) / ref
}

// BuildReport runs the full correlation matrix and scores it against
// the committed reference.
func BuildReport(platforms []*arch.Arch, apps []*workloads.App, ref *Reference, opt ReportOptions) (*Report, error) {
	cells, err := simMatrix(platforms, apps, opt)
	if err != nil {
		return nil, err
	}
	rep := &Report{Benchmark: reportBenchmark, GeneratedBy: reportGenerated, Note: reportNote}
	for pi, ar := range platforms {
		refCurve, err := ref.CurveFor(ar.Name)
		if err != nil {
			return nil, err
		}
		def, stag, err := simCurves(ar)
		if err != nil {
			return nil, err
		}
		a := ArchReport{Arch: ar.Name, CurveRMS: CurveRMS(def, stag, refCurve)}
		for ai, app := range apps {
			t, err := ref.TargetFor(ar.Name, app.Name())
			if err != nil {
				return nil, err
			}
			sim := cells[pi][ai]
			cell := AppCell{
				App:        app.Name(),
				SimCycles:  sim.cycles,
				RefCycles:  t.Cycles,
				CycleErr:   relErr(float64(sim.cycles), float64(t.Cycles)),
				SimSpeedup: sim.speedup,
				RefSpeedup: t.Speedup,
				SpeedupErr: relErr(sim.speedup, t.Speedup),
			}
			a.Cells = append(a.Cells, cell)
			a.MeanAbsCycleErr += math.Abs(cell.CycleErr)
			a.MeanAbsSpeedupErr += math.Abs(cell.SpeedupErr)
			a.MaxAbsCycleErr = math.Max(a.MaxAbsCycleErr, math.Abs(cell.CycleErr))
			a.MaxAbsSpeedupErr = math.Max(a.MaxAbsSpeedupErr, math.Abs(cell.SpeedupErr))
			rep.Summary.Cells++
			rep.Summary.MeanAbsCycleErr += math.Abs(cell.CycleErr)
			rep.Summary.MeanAbsSpeedupErr += math.Abs(cell.SpeedupErr)
			if math.Abs(cell.CycleErr) <= 0.05 && math.Abs(cell.SpeedupErr) <= 0.05 {
				rep.Summary.Within5++
			}
			if math.Abs(cell.CycleErr) <= 0.10 && math.Abs(cell.SpeedupErr) <= 0.10 {
				rep.Summary.Within10++
			}
		}
		if n := len(a.Cells); n > 0 {
			a.MeanAbsCycleErr /= float64(n)
			a.MeanAbsSpeedupErr /= float64(n)
		}
		rep.Arches = append(rep.Arches, a)
	}
	if rep.Summary.Cells > 0 {
		rep.Summary.MeanAbsCycleErr /= float64(rep.Summary.Cells)
		rep.Summary.MeanAbsSpeedupErr /= float64(rep.Summary.Cells)
	}
	return rep, nil
}

// WriteText renders the report as aligned tables, one per platform.
func (r *Report) WriteText(w io.Writer) {
	for _, a := range r.Arches {
		fmt.Fprintf(w, "== %s (Figure 2 curve RMS %.4f) ==\n", a.Arch, a.CurveRMS)
		fmt.Fprintf(w, "%-5s %12s %12s %10s %12s %12s %12s\n",
			"app", "sim cycles", "ref cycles", "cycle err", "sim speedup", "ref speedup", "speedup err")
		for _, c := range a.Cells {
			fmt.Fprintf(w, "%-5s %12d %12d %9.2f%% %12.3f %12.3f %11.2f%%\n",
				c.App, c.SimCycles, c.RefCycles, 100*c.CycleErr, c.SimSpeedup, c.RefSpeedup, 100*c.SpeedupErr)
		}
		fmt.Fprintf(w, "mean |cycle err| %.2f%%  mean |speedup err| %.2f%%  max %.2f%% / %.2f%%\n\n",
			100*a.MeanAbsCycleErr, 100*a.MeanAbsSpeedupErr, 100*a.MaxAbsCycleErr, 100*a.MaxAbsSpeedupErr)
	}
	s := r.Summary
	fmt.Fprintf(w, "summary: %d cells  mean |cycle err| %.2f%%  mean |speedup err| %.2f%%  within 5%%: %d/%d  within 10%%: %d/%d\n",
		s.Cells, 100*s.MeanAbsCycleErr, 100*s.MeanAbsSpeedupErr, s.Within5, s.Cells, s.Within10, s.Cells)
}

// WriteJSON renders the report in the canonical JSON form (two-space
// indent, trailing newline — api.Marshal's contract), the exact bytes
// committed as BENCH_calib.json.
func (r *Report) WriteJSON(w io.Writer) error {
	return api.Encode(w, r)
}
