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
	"ctacluster/internal/engine"
	"ctacluster/internal/workloads"
)

// ChipletCell is one mode of the chiplet comparison, an element of the
// BENCH_chiplet.json schema.
type ChipletCell struct {
	// Label is "BSL", "CLU", "SWZ(dieblock)" or "CLU+SWZ(dieblock)".
	Label   string  `json:"label"`
	Cycles  int64   `json:"cycles"`
	Speedup float64 `json:"speedup"`     // vs BSL on the same chiplet descriptor
	L2Txn   uint64  `json:"l2_read_txn"` // measured L2 read transactions
	// RemoteTxn counts L2-slice read misses homed on another die's HBM
	// stack (mem.Stats.RemoteL2Transactions); RemoteFrac normalizes by
	// DRAM reads, so 0 means every miss stayed die-local and (D-1)/D is
	// the placement-oblivious expectation on D dies.
	RemoteTxn  uint64  `json:"remote_l2_txn"`
	RemoteFrac float64 `json:"remote_frac"`
	// InterposerBytes is the cross-die fill traffic (one L2 line per
	// remote transaction).
	InterposerBytes uint64  `json:"interposer_bytes"`
	L1Hit           float64 `json:"l1_hit_rate"`
}

// ChipletComparison is the four-way comparison for one (app, arch)
// cell: one element of the BENCH_chiplet.json document. Arch names a
// chiplet descriptor (e.g. "TeslaK40@2die") and Chiplets is its die
// count.
type ChipletComparison struct {
	App      string `json:"app"`
	Arch     string `json:"arch"`
	Chiplets int    `json:"chiplets"`
	// Cells holds BSL, CLU, SWZ(dieblock), CLU+SWZ(dieblock) in that
	// fixed order.
	Cells []ChipletCell `json:"cells"`
	// Best is the label of the fastest cell (fewest cycles, first wins
	// on ties in the fixed order above, so BSL wins a dead heat — an
	// honest "clustering does not help here" answer).
	Best string `json:"best"`
}

// compareChiplet runs the four-way comparison for one app on one
// chiplet architecture, its simulations fanned out on rn. The
// descriptor must already be a chiplet variant (arch.WithChiplets);
// comparing on a monolithic descriptor is an error — every interposer
// counter would be zero and the comparison would silently degenerate to
// a subset of the swizzle comparison.
func compareChiplet(ar *arch.Arch, app *workloads.App, opt Options, rn *Runner) (*ChipletComparison, error) {
	if !ar.IsChiplet() {
		return nil, fmt.Errorf("eval: CompareChipletMatrix needs a chiplet descriptor (arch.WithChiplets); %s is monolithic", ar.Name)
	}
	if opt.Swizzle != "" {
		return nil, fmt.Errorf("eval: CompareChipletMatrix applies the die-aware swizzle itself; Options.Swizzle must be empty, got %q", opt.Swizzle)
	}
	if opt.Quick {
		return nil, fmt.Errorf("eval: CompareChipletMatrix runs no throttle sweep; Options.Quick must be false")
	}
	cfg := opt.config(ar)

	// All four modes are mutually independent: one wave. Selection below
	// scans in this fixed order, keeping the outcome identical for any
	// worker count.
	sims := []sim{
		simOf("BSL", Spec{}, app, ar),
		simOf("CLU", Spec{Scheme: "CLU"}, app, ar),
		simOf("SWZ(dieblock)", Spec{Swizzle: "dieblock"}, app, ar),
		simOf("CLU+SWZ(dieblock)", Spec{Swizzle: "dieblock", Scheme: "CLU"}, app, ar),
	}
	res, err := runSims(opt.context(), rn, cfg, fmt.Sprintf("chiplet-compare %s/%s", app.Name(), ar.Name), sims)
	if err != nil {
		return nil, err
	}
	base := res[0]

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

	out := &ChipletComparison{App: app.Name(), Arch: ar.Name, Chiplets: ar.Chiplets}
	for i, s := range sims {
		out.Cells = append(out.Cells, cell(s.label, res[i]))
	}
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
// arch-major in input order, fanning the cells' simulations out over
// opt.Parallelism workers. Every platform must already be a chiplet
// descriptor (cli.Chiplet applies arch.WithChiplets before this is
// reached). The result is byte-identical for every worker count.
func CompareChipletMatrix(platforms []*arch.Arch, apps []*workloads.App, opt Options, progress func(string)) ([]*ChipletComparison, error) {
	return eachCell(platforms, apps, opt, progress, "chiplet-compare ", func(ar *arch.Arch, app *workloads.App, rn *Runner) (*ChipletComparison, error) {
		return compareChiplet(ar, app, opt, rn)
	})
}
