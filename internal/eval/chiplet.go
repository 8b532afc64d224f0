package eval

// The chiplet placement comparison: does the paper's monolithic-GPU
// clustering survive a multi-chiplet part (DESIGN.md §13)? For one
// (app, chiplet-arch) cell it simulates the row-major baseline,
// agent-based clustering, the die-aware dieblock swizzle, and
// clustering over dieblock, and reports cycles alongside the two
// interposer counters (remote L2 transactions, interposer bytes) that
// distinguish "clustering helps" from "clustering schedules
// cluster-mates onto different dies". The matrix form feeds
// BENCH_chiplet.json via `evaluate -chiplet-compare`.

import (
	"fmt"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/swizzle"
	"ctacluster/internal/workloads"
)

// ChipletCell is one mode of the chiplet comparison.
type ChipletCell struct {
	// Label is "BSL", "CLU", "SWZ(dieblock)" or "CLU+SWZ(dieblock)".
	Label   string
	Cycles  int64
	Speedup float64 // vs BSL on the same chiplet descriptor
	L2Txn   uint64  // measured L2 read transactions
	// RemoteTxn counts L2-slice read misses homed on another die's HBM
	// stack (mem.Stats.RemoteL2Transactions); RemoteFrac normalizes by
	// DRAM reads, so 0 means every miss stayed die-local and (D-1)/D is
	// the placement-oblivious expectation on D dies.
	RemoteTxn  uint64
	RemoteFrac float64
	// InterposerBytes is the cross-die fill traffic (one L2 line per
	// remote transaction).
	InterposerBytes uint64
	L1Hit           float64
}

// ChipletComparison is the four-way comparison for one (app, arch)
// cell. Arch is always a chiplet descriptor (Arch.IsChiplet).
type ChipletComparison struct {
	App  *workloads.App
	Arch *arch.Arch
	// Cells holds BSL, CLU, SWZ(dieblock), CLU+SWZ(dieblock) in that
	// fixed order.
	Cells []ChipletCell
	// Best is the label of the fastest cell (fewest cycles, first wins
	// on ties in the fixed order above, so BSL wins a dead heat — an
	// honest "clustering does not help here" answer).
	Best string
}

// CompareChiplet runs the four-way comparison for one app on one
// chiplet architecture. The descriptor must already be a chiplet
// variant (arch.WithChiplets); comparing on a monolithic descriptor is
// an error — every interposer counter would be zero and the comparison
// would silently degenerate to a subset of CompareSwizzle. Results are
// byte-identical for every opt.Parallelism.
func CompareChiplet(ar *arch.Arch, app *workloads.App, opt Options) (*ChipletComparison, error) {
	return compareChiplet(ar, app, opt, newRunner(opt.Parallelism))
}

func compareChiplet(ar *arch.Arch, app *workloads.App, opt Options, rn *runner) (*ChipletComparison, error) {
	if !ar.IsChiplet() {
		return nil, fmt.Errorf("eval: CompareChiplet needs a chiplet descriptor (arch.WithChiplets); %s is monolithic", ar.Name)
	}
	if opt.Swizzle != "" {
		return nil, fmt.Errorf("eval: CompareChiplet applies the die-aware swizzle itself; Options.Swizzle must be empty, got %q", opt.Swizzle)
	}
	cfg := engine.DefaultConfig(ar)
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	ctx := opt.context()

	sim := func(k kernel.Kernel, dst **engine.Result, slot *error, label string) func() {
		return func() {
			r, err := engine.RunContext(ctx, cfg, k)
			if err != nil {
				*slot = fmt.Errorf("chiplet-compare %s/%s %s: %w", app.Name(), ar.Name, label, err)
				return
			}
			*dst = r
		}
	}

	// All four modes are mutually independent: one wave. Selection below
	// scans in construction order, keeping the outcome identical for any
	// worker count.
	var stages stageList
	var jobs []func()

	var base *engine.Result
	jobs = append(jobs, sim(app, &base, stages.add(), "BSL"))

	var cluRes *engine.Result
	clu, err := core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: app.Partition()})
	if err != nil {
		return nil, err
	}
	jobs = append(jobs, sim(clu, &cluRes, stages.add(), "CLU"))

	var swzRes *engine.Result
	swz, err := swizzle.WrapFor("dieblock", app, ar)
	if err != nil {
		return nil, err
	}
	jobs = append(jobs, sim(swz, &swzRes, stages.add(), "SWZ(dieblock)"))

	var bothRes *engine.Result
	bothK, err := swizzle.WrapFor("dieblock", app, ar)
	if err != nil {
		return nil, err
	}
	both, err := core.NewAgent(bothK, core.AgentConfig{Arch: ar, Indexing: app.Partition()})
	if err != nil {
		return nil, err
	}
	jobs = append(jobs, sim(both, &bothRes, stages.add(), "CLU+SWZ(dieblock)"))

	rn.do(jobs...)
	if err := stages.first(); err != nil {
		return nil, err
	}

	cell := func(label string, res *engine.Result) ChipletCell {
		c := ChipletCell{
			Label:           label,
			Cycles:          res.Cycles,
			L2Txn:           res.L2ReadTransactions(),
			RemoteTxn:       res.Mem.RemoteL2Transactions,
			InterposerBytes: res.Mem.InterposerBytes,
			L1Hit:           res.L1.HitRate(),
		}
		if res.Cycles > 0 {
			c.Speedup = float64(base.Cycles) / float64(res.Cycles)
		}
		if res.Mem.DRAMReads > 0 {
			c.RemoteFrac = float64(res.Mem.RemoteL2Transactions) / float64(res.Mem.DRAMReads)
		}
		return c
	}

	out := &ChipletComparison{App: app, Arch: ar}
	out.Cells = append(out.Cells,
		cell("BSL", base),
		cell("CLU", cluRes),
		cell("SWZ(dieblock)", swzRes),
		cell("CLU+SWZ(dieblock)", bothRes),
	)
	out.Best = out.Cells[0].Label
	bestCycles := out.Cells[0].Cycles
	for _, c := range out.Cells[1:] {
		if c.Cycles < bestCycles {
			out.Best, bestCycles = c.Label, c.Cycles
		}
	}
	return out, nil
}

// CompareChipletMatrix runs the comparison over every (arch, app) cell,
// arch-major in input order, fanning each cell's simulations out over
// opt.Parallelism workers. Every platform must already be a chiplet
// descriptor (cli.Chiplet applies arch.WithChiplets before this is
// reached). The result is byte-identical for every worker count.
func CompareChipletMatrix(platforms []*arch.Arch, apps []*workloads.App, opt Options, progress func(string)) ([]*ChipletComparison, error) {
	rn := newRunner(opt.Parallelism)
	var out []*ChipletComparison
	for _, ar := range platforms {
		for _, app := range apps {
			if progress != nil {
				progress(fmt.Sprintf("chiplet-compare %s on %s", app.Name(), ar.Name))
			}
			c, err := compareChiplet(ar, app, opt, rn)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	return out, nil
}
