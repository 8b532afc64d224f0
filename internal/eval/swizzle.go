package eval

// The clustering-vs-swizzling-vs-both comparison: the Figure 12/13-style
// experiment the paper never ran. For one (app, arch) cell it simulates
// the row-major baseline, every registered CTA tile swizzle, agent-based
// clustering, and clustering applied over the analyzer's predicted-best
// swizzle, then scores the L2 reuse analyzer's prediction against the
// measured L2 read transactions (internal/prof's ground truth). The
// matrix form feeds BENCH_swizzle.json via `evaluate -swizzle-compare`.

import (
	"fmt"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/swizzle"
	"ctacluster/internal/workloads"
)

// SwizzleCell is one mode of the comparison: its measured outcome and,
// for unclustered modes, the analyzer's windowed prediction for the
// exact kernel simulated. It is an element of the BENCH_swizzle.json
// schema.
type SwizzleCell struct {
	// Label is "BSL", "SWZ(<name>)", "CLU" or "CLU+SWZ(<name>)".
	Label string `json:"label"`
	// Swizzle is the applied swizzle name; "" for the plain modes. The
	// BSL row is the identity rasterization, so its prediction is the
	// analyzer's identity score.
	Swizzle string `json:"swizzle,omitempty"`
	// PredictedFetches / PredictedShared are the analyzer's
	// window-compulsory L2 fetch count and cross-CTA shared-line
	// fraction for the simulated kernel; zero (and absent from the
	// JSON) for the clustered modes, whose placement-dependent dispatch
	// the windowed analyzer does not model.
	PredictedFetches uint64  `json:"predicted_fetches,omitempty"`
	PredictedShared  float64 `json:"predicted_shared,omitempty"`
	Cycles           int64   `json:"cycles"`
	Speedup          float64 `json:"speedup"`     // vs BSL
	L2Txn            uint64  `json:"l2_read_txn"` // measured L2 read transactions
	L2Delta          float64 `json:"l2_delta"`    // L2Txn / BSL's - 1 (negative = reduction)
	L1Hit            float64 `json:"l1_hit_rate"`
}

// SwizzleComparison is the full three-way comparison for one
// (app, arch) cell: one element of the BENCH_swizzle.json document.
type SwizzleComparison struct {
	App  string `json:"app"`
	Arch string `json:"arch"`
	// Window and LineBytes are the analyzer's occupancy-derived
	// co-residency window and line granularity for this cell.
	Window    int `json:"window"`
	LineBytes int `json:"line_bytes"`
	// Cells holds BSL, one SWZ row per non-identity variant in sorted
	// order, CLU, and CLU over the predicted-best swizzle.
	Cells []SwizzleCell `json:"cells"`
	// PredictedBest is the analyzer's choice (largest cross-CTA reuse
	// fraction, identity the tie-winning incumbent);
	// MeasuredBest is the variant with the
	// fewest measured L2 read transactions (BSL standing in for
	// identity). PredictionHit reports their agreement — the analyzer's
	// score against internal/prof ground truth.
	PredictedBest string `json:"predicted_best"`
	MeasuredBest  string `json:"measured_best"`
	PredictionHit bool   `json:"prediction_hit"`
}

// compareSwizzle runs the three-way comparison for one app on one
// architecture, its simulations fanned out on rn.
func compareSwizzle(ar *arch.Arch, app *workloads.App, opt Options, rn *Runner) (*SwizzleComparison, error) {
	if opt.Swizzle != "" {
		return nil, fmt.Errorf("eval: CompareSwizzleMatrix sweeps every swizzle itself; Options.Swizzle must be empty, got %q", opt.Swizzle)
	}
	if opt.Quick {
		return nil, fmt.Errorf("eval: CompareSwizzleMatrix runs no throttle sweep; Options.Quick must be false")
	}
	cfg := opt.config(ar)

	// Analyzer predictions first: cheap, serial, deterministic.
	pred, err := swizzle.NewAnalyzer().PredictBest(app, ar)
	if err != nil {
		return nil, err
	}
	quants := map[string]*swizzle.Quant{}
	for i := range pred.Scores {
		quants[pred.Scores[i].Swizzle] = &pred.Scores[i].Quant
	}

	// BSL (= identity rasterization), every non-identity swizzle, plain
	// CLU, and CLU over the predicted-best swizzle — all mutually
	// independent. Selection below scans in construction order, keeping
	// the outcome identical for any worker count.
	sims := []sim{simOf("BSL", Spec{}, app, ar)}
	var swzNames []string
	for _, name := range swizzle.Names() {
		if name != "identity" { // BSL is the identity rasterization
			swzNames = append(swzNames, name)
			sims = append(sims, simOf("SWZ("+name+")", Spec{Swizzle: name}, app, ar))
		}
	}
	// "Both": clustering over the predicted-best swizzle — the policy a
	// deployment would apply, since the measured best is not known until
	// after the runs the analyzer exists to avoid.
	bothLabel := "CLU+SWZ(" + pred.Best + ")"
	sims = append(sims,
		simOf("CLU", Spec{Scheme: "CLU"}, app, ar),
		simOf(bothLabel, Spec{Swizzle: pred.Best, Scheme: "CLU"}, app, ar))
	res, err := runSims(opt.context(), rn, cfg, fmt.Sprintf("swizzle-compare %s/%s", app.Name(), ar.Name), sims)
	if err != nil {
		return nil, err
	}
	base, swzRes := res[0], res[1:1+len(swzNames)]
	cluRes, bothRes := res[1+len(swzNames)], res[2+len(swzNames)]

	cell := func(label, swz string, q *swizzle.Quant, res *engine.Result) SwizzleCell {
		c := SwizzleCell{
			Label: label, Swizzle: swz,
			Cycles: res.Cycles,
			L2Txn:  res.L2ReadTransactions(),
			L1Hit:  res.L1.HitRate(),
		}
		if q != nil {
			c.PredictedFetches, c.PredictedShared = q.Fetches, q.SharedFraction()
		}
		if res.Cycles > 0 {
			c.Speedup = float64(base.Cycles) / float64(res.Cycles)
		}
		if b := base.L2ReadTransactions(); b > 0 {
			c.L2Delta = float64(c.L2Txn)/float64(b) - 1
		}
		return c
	}

	idQuant := quants["identity"]
	out := &SwizzleComparison{
		App: app.Name(), Arch: ar.Name,
		Window:        idQuant.Window,
		LineBytes:     idQuant.LineBytes,
		PredictedBest: pred.Best,
	}
	out.Cells = append(out.Cells, cell("BSL", "", idQuant, base))

	// Measured best: BSL stands in for identity; first-best-wins in the
	// same sorted order the analyzer ranked, so ties break identically.
	out.MeasuredBest = "identity"
	bestTxn := base.L2ReadTransactions()
	for i, name := range swzNames {
		out.Cells = append(out.Cells, cell("SWZ("+name+")", name, quants[name], swzRes[i]))
		if txn := swzRes[i].L2ReadTransactions(); txn < bestTxn {
			out.MeasuredBest, bestTxn = name, txn
		}
	}
	out.PredictionHit = out.PredictedBest == out.MeasuredBest

	out.Cells = append(out.Cells, cell("CLU", "", nil, cluRes))
	out.Cells = append(out.Cells, cell(bothLabel, pred.Best, nil, bothRes))
	return out, nil
}

// CompareSwizzleMatrix runs the comparison over every (arch, app) cell,
// arch-major in input order, fanning the cells' simulations out over
// opt.Parallelism workers. The result is byte-identical for every
// worker count.
func CompareSwizzleMatrix(platforms []*arch.Arch, apps []*workloads.App, opt Options, progress func(string)) ([]*SwizzleComparison, error) {
	return eachCell(platforms, apps, opt, progress, "swizzle-compare ", func(ar *arch.Arch, app *workloads.App, rn *Runner) (*SwizzleComparison, error) {
		return compareSwizzle(ar, app, opt, rn)
	})
}
