package api

import (
	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/eval"
	"ctacluster/internal/locality"
	"ctacluster/internal/report"
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

// cellFrom converts one eval cell.
func cellFrom(c eval.Cell) SweepCell {
	return SweepCell{
		Scheme:             c.Scheme.String(),
		Cycles:             c.Cycles,
		Speedup:            c.Speedup,
		L2ReadTransactions: c.L2Txn,
		L2Norm:             c.L2Norm,
		L1HitRate:          c.L1Hit,
		AchievedOccupancy:  c.AchOcc,
		OccupancyNorm:      c.OccNorm,
		Agents:             c.Agents,
	}
}

// SweepResponseFrom converts the full evaluation matrix, cells in the
// Figure 12 legend order and per-scheme geometric means computed the
// way report.Figure12 does.
func SweepResponseFrom(platforms []eval.PlatformResult) SweepResponse {
	out := SweepResponse{Platforms: make([]SweepPlatform, 0, len(platforms))}
	for _, pr := range platforms {
		p := SweepPlatform{Arch: pr.Arch.Name, Generation: pr.Arch.Gen.String()}
		speedups := map[eval.Scheme][]float64{}
		for _, r := range pr.Results {
			ar := SweepAppResult{App: r.App.Name()}
			for _, s := range eval.Schemes {
				c, ok := r.Cells[s]
				if !ok {
					continue
				}
				ar.Cells = append(ar.Cells, cellFrom(c))
				speedups[s] = append(speedups[s], c.Speedup)
			}
			p.Results = append(p.Results, ar)
		}
		for _, s := range eval.Schemes {
			if vs, ok := speedups[s]; ok {
				p.GeoMean = append(p.GeoMean, SchemeGeoMean{Scheme: s.String(), Speedup: eval.GeoMean(vs)})
			}
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

// SwizzleCompareResponseFrom converts the clustering-vs-swizzling-vs-
// both matrix into the BENCH_swizzle.json schema.
func SwizzleCompareResponseFrom(comparisons []*eval.SwizzleComparison) SwizzleCompareResponse {
	out := SwizzleCompareResponse{Comparisons: make([]SwizzleComparison, 0, len(comparisons))}
	for _, c := range comparisons {
		sc := SwizzleComparison{
			App:           c.App.Name(),
			Arch:          c.Arch.Name,
			Window:        c.Window,
			LineBytes:     c.LineBytes,
			PredictedBest: c.PredictedBest,
			MeasuredBest:  c.MeasuredBest,
			PredictionHit: c.PredictionHit,
		}
		for _, cell := range c.Cells {
			r := SwizzleCellResult{
				Label:     cell.Label,
				Swizzle:   cell.Swizzle,
				Cycles:    cell.Cycles,
				Speedup:   cell.Speedup,
				L2ReadTxn: cell.L2Txn,
				L2Delta:   cell.L2Delta,
				L1HitRate: cell.L1Hit,
			}
			if cell.Predicted != nil {
				r.PredictedFetches = cell.Predicted.Fetches
				r.PredictedShared = cell.Predicted.SharedFraction()
			}
			sc.Cells = append(sc.Cells, r)
		}
		out.Comparisons = append(out.Comparisons, sc)
	}
	return out
}

// ChipletCompareResponseFrom converts the chiplet placement matrix
// into the BENCH_chiplet.json schema.
func ChipletCompareResponseFrom(comparisons []*eval.ChipletComparison) ChipletCompareResponse {
	out := ChipletCompareResponse{Comparisons: make([]ChipletComparison, 0, len(comparisons))}
	for _, c := range comparisons {
		cc := ChipletComparison{
			App:      c.App.Name(),
			Arch:     c.Arch.Name,
			Chiplets: c.Arch.Chiplets,
			Best:     c.Best,
		}
		for _, cell := range c.Cells {
			cc.Cells = append(cc.Cells, ChipletCellResult{
				Label:           cell.Label,
				Cycles:          cell.Cycles,
				Speedup:         cell.Speedup,
				L2ReadTxn:       cell.L2Txn,
				RemoteL2Txn:     cell.RemoteTxn,
				RemoteFrac:      cell.RemoteFrac,
				InterposerBytes: cell.InterposerBytes,
				L1HitRate:       cell.L1Hit,
			})
		}
		out.Comparisons = append(out.Comparisons, cc)
	}
	return out
}

// TableResponseFrom converts a report table.
func TableResponseFrom(t *report.Table) TableResponse {
	return TableResponse{Title: t.Title, Header: t.Header, Rows: t.Rows}
}
