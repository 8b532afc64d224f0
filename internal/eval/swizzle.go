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
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/swizzle"
	"ctacluster/internal/workloads"
)

// SwizzleCell is one mode of the comparison: its measured outcome and,
// for unclustered modes, the analyzer's windowed prediction for the
// exact kernel simulated.
type SwizzleCell struct {
	// Label is "BSL", "SWZ(<name>)", "CLU" or "CLU+SWZ(<name>)".
	Label string
	// Swizzle is the applied swizzle name; "" for the plain modes. The
	// BSL row is the identity rasterization, so its prediction is the
	// analyzer's identity score.
	Swizzle string
	// Predicted is the analyzer's windowed quantification of the
	// simulated kernel; nil for the clustered modes, whose
	// placement-dependent dispatch the windowed analyzer does not model.
	Predicted *swizzle.Quant
	Cycles    int64
	Speedup   float64 // vs BSL
	L2Txn     uint64  // measured L2 read transactions
	L2Delta   float64 // L2Txn / BSL's - 1 (negative = reduction)
	L1Hit     float64
}

// SwizzleComparison is the full three-way comparison for one
// (app, arch) cell.
type SwizzleComparison struct {
	App  *workloads.App
	Arch *arch.Arch
	// Window and LineBytes are the analyzer's occupancy-derived
	// co-residency window and line granularity for this cell.
	Window    int
	LineBytes int
	// Cells holds BSL, one SWZ row per non-identity variant in sorted
	// order, CLU, and CLU over the predicted-best swizzle.
	Cells []SwizzleCell
	// PredictedBest is the analyzer's choice (largest cross-CTA reuse
	// fraction, identity the tie-winning incumbent);
	// MeasuredBest is the variant with the
	// fewest measured L2 read transactions (BSL standing in for
	// identity). PredictionHit reports their agreement.
	PredictedBest string
	MeasuredBest  string
	PredictionHit bool
}

// CompareSwizzle runs the three-way comparison for one app on one
// architecture. Results are byte-identical for every opt.Parallelism.
func CompareSwizzle(ar *arch.Arch, app *workloads.App, opt Options) (*SwizzleComparison, error) {
	return compareSwizzle(ar, app, opt, newRunner(opt.Parallelism))
}

func compareSwizzle(ar *arch.Arch, app *workloads.App, opt Options, rn *runner) (*SwizzleComparison, error) {
	if opt.Swizzle != "" {
		return nil, fmt.Errorf("eval: CompareSwizzle sweeps every swizzle itself; Options.Swizzle must be empty, got %q", opt.Swizzle)
	}
	cfg := engine.DefaultConfig(ar)
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	ctx := opt.context()

	// Analyzer predictions first: cheap, serial, deterministic.
	pred, err := swizzle.NewAnalyzer().PredictBest(app, ar)
	if err != nil {
		return nil, err
	}
	quants := map[string]*swizzle.Quant{}
	for i := range pred.Scores {
		quants[pred.Scores[i].Swizzle] = &pred.Scores[i].Quant
	}

	sim := func(k kernel.Kernel, dst **engine.Result, slot *error, label string) func() {
		return func() {
			r, err := engine.RunContext(ctx, cfg, k)
			if err != nil {
				*slot = fmt.Errorf("swizzle-compare %s/%s %s: %w", app.Name(), ar.Name, label, err)
				return
			}
			*dst = r
		}
	}

	// Wave 1: BSL (= identity rasterization), every non-identity
	// swizzle, plain CLU, and CLU over the predicted-best swizzle — all
	// mutually independent. Selection below scans in construction order,
	// keeping the outcome identical for any worker count.
	var stages stageList
	var jobs []func()

	var base *engine.Result
	jobs = append(jobs, sim(app, &base, stages.add(), "BSL"))

	var swzNames []string
	for _, name := range swizzle.Names() {
		if name != "identity" { // BSL is the identity rasterization
			swzNames = append(swzNames, name)
		}
	}
	swzRes := make([]*engine.Result, len(swzNames))
	for i, name := range swzNames {
		sk, err := swizzle.Wrap(name, app)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, sim(sk, &swzRes[i], stages.add(), "SWZ("+name+")"))
	}

	var cluRes *engine.Result
	clu, err := core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: app.Partition()})
	if err != nil {
		return nil, err
	}
	jobs = append(jobs, sim(clu, &cluRes, stages.add(), "CLU"))

	// "Both": clustering over the predicted-best swizzle — the policy a
	// deployment would apply, since the measured best is not known until
	// after the runs the analyzer exists to avoid.
	var bothRes *engine.Result
	bothK, err := swizzle.Wrap(pred.Best, app)
	if err != nil {
		return nil, err
	}
	both, err := core.NewAgent(bothK, core.AgentConfig{Arch: ar, Indexing: app.Partition()})
	if err != nil {
		return nil, err
	}
	bothLabel := "CLU+SWZ(" + pred.Best + ")"
	jobs = append(jobs, sim(both, &bothRes, stages.add(), bothLabel))

	rn.do(jobs...)
	if err := stages.first(); err != nil {
		return nil, err
	}

	cell := func(label, swz string, q *swizzle.Quant, res *engine.Result) SwizzleCell {
		c := SwizzleCell{
			Label: label, Swizzle: swz, Predicted: q,
			Cycles: res.Cycles,
			L2Txn:  res.L2ReadTransactions(),
			L1Hit:  res.L1.HitRate(),
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
		App: app, Arch: ar,
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
// arch-major in input order, fanning each cell's simulations out over
// opt.Parallelism workers. The result is byte-identical for every
// worker count.
func CompareSwizzleMatrix(platforms []*arch.Arch, apps []*workloads.App, opt Options, progress func(string)) ([]*SwizzleComparison, error) {
	rn := newRunner(opt.Parallelism)
	var out []*SwizzleComparison
	for _, ar := range platforms {
		for _, app := range apps {
			if progress != nil {
				progress(fmt.Sprintf("swizzle-compare %s on %s", app.Name(), ar.Name))
			}
			c, err := compareSwizzle(ar, app, opt, rn)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	return out, nil
}
