package api

import (
	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/eval"
	"ctacluster/internal/locality"
	"ctacluster/internal/workloads"
)

// SimulateResponseFrom renders one engine run as the shared schema.
// swizzle is the canonical CTA tile swizzle name applied under the
// scheme ("" = none).
func SimulateResponseFrom(app, archName, scheme, swizzle string, res *engine.Result) SimulateResponse {
	out := SimulateResponse{
		App:                app,
		Arch:               archName,
		Scheme:             scheme,
		Swizzle:            swizzle,
		Kernel:             res.Kernel,
		Cycles:             res.Cycles,
		L1HitRate:          res.L1.HitRate(),
		L2ReadTransactions: res.L2ReadTransactions(),
		AchievedOccupancy:  res.AchievedOccupancy,
	}
	for _, row := range res.ProfMetrics().Rows() {
		out.Metrics = append(out.Metrics, MetricRow{Name: row[0], Value: row[1]})
	}
	return out
}

// SweepResponseFrom converts the full evaluation matrix, cells in the
// Figure 12 legend order and per-scheme geometric means computed the
// way report.Figure12 does.
func SweepResponseFrom(platforms []eval.PlatformResult) SweepResponse {
	out := SweepResponse{Platforms: make([]SweepPlatform, 0, len(platforms))}
	for _, pr := range platforms {
		p := SweepPlatform{Arch: pr.Arch.Name, Generation: pr.Arch.Gen.String()}
		for _, r := range pr.Results {
			p.Results = append(p.Results, SweepAppResult{App: r.App.Name(), Cells: r.Cells[:]})
		}
		speedups := make([]float64, len(pr.Results))
		for _, s := range eval.Schemes {
			for i, r := range pr.Results {
				speedups[i] = r.Cells[s].Speedup
			}
			p.GeoMean = append(p.GeoMean, SchemeGeoMean{Scheme: s.String(), Speedup: eval.GeoMean(speedups)})
		}
		out.Platforms = append(out.Platforms, p)
	}
	return out
}

// OptimizeResponseFrom renders the framework verdict plus the plan's
// before/after runs — the JSON twin of the ctacluster CLI report.
func OptimizeResponseFrom(app *workloads.App, ar *arch.Arch, plan *locality.Plan) OptimizeResponse {
	a, base, opt := plan.Analysis, plan.Baseline, plan.Optimized
	out := OptimizeResponse{
		App:         app.Name(),
		Arch:        ar.Name,
		Category:    a.Category.String(),
		GroundTruth: app.Category().String(),
		Exploitable: a.Exploitable,
		Partition:   locality.DirectionLabel(a.Direction),
		Decision:    plan.Description,
		Probes: ProbeReport{
			CoalescingDegree: a.Probes.CoalescingDegree,
			BaselineL1Hit:    a.Probes.BaselineL1Hit,
			RedirectL1Hit:    a.Probes.RedirectL1Hit,
			BaselineL2Txn:    a.Probes.BaselineL2Txn,
			RedirectL2Txn:    a.Probes.RedirectL2Txn,
			L1OffL2Txn:       a.Probes.L1OffL2Txn,
		},
		Baseline:  runSummary(base),
		Optimized: runSummary(opt),
	}
	if opt.Cycles > 0 {
		out.Speedup = float64(base.Cycles) / float64(opt.Cycles)
	}
	if base.L2ReadTransactions() > 0 {
		out.L2Ratio = float64(opt.L2ReadTransactions()) / float64(base.L2ReadTransactions())
	}
	return out
}

func runSummary(r *engine.Result) RunSummary {
	return RunSummary{
		Kernel:             r.Kernel,
		Cycles:             r.Cycles,
		L1HitRate:          r.L1.HitRate(),
		L2ReadTransactions: r.L2ReadTransactions(),
	}
}
