// Package eval drives the paper's evaluation (Section 5): it runs every
// application under the six schemes of Figures 12 and 13 — BSL, RD, CLU,
// CLU+TOT, CLU+TOT+BPS and PFH+TOT — on each architecture, sweeping the
// throttling degree the way the paper's dynamic CTA voting scheme picks
// the optimal number of active agents. Every kernel it simulates is
// built by Spec, and every batch of independent simulations fans out
// through Runner.Each (parallel.go).
package eval

import (
	"context"
	"fmt"
	"math"
	"slices"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/locality"
	"ctacluster/internal/workloads"
)

// Scheme enumerates the evaluated configurations (the Figure 12 legend).
type Scheme int

const (
	// BSL is the unmodified kernel under the default scheduler.
	BSL Scheme = iota
	// RD is redirection-based clustering (Listing 4).
	RD
	// CLU is agent-based clustering with the maximum allowable agents.
	CLU
	// CLUTOT is agent-based clustering with the optimal (swept) number
	// of active agents.
	CLUTOT
	// CLUTOTBPS adds cache bypassing of streaming accesses to CLUTOT.
	CLUTOTBPS
	// PFHTOT is CTA-order reshaping plus prefetching (for applications
	// without exploitable inter-CTA locality) under optimal throttling.
	PFHTOT
)

// Schemes lists all schemes in presentation order.
var Schemes = []Scheme{BSL, RD, CLU, CLUTOT, CLUTOTBPS, PFHTOT}

// String returns the Figure 12 legend label.
func (s Scheme) String() string {
	switch s {
	case BSL:
		return "BSL"
	case RD:
		return "RD"
	case CLU:
		return "CLU"
	case CLUTOT:
		return "CLU+TOT"
	case CLUTOTBPS:
		return "CLU+TOT+BPS"
	case PFHTOT:
		return "PFH+TOT"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// MarshalText renders the legend label, so a Cell's JSON names its
// scheme the way Figure 12 does.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a legend label back, so a decoded sweep carries
// the Scheme values the evaluation produced.
func (s *Scheme) UnmarshalText(b []byte) error {
	for _, c := range Schemes {
		if c.String() == string(b) {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("eval: unknown scheme %q", b)
}

// Cell is one scheme's outcome for one app on one architecture; its
// JSON form is a cell of the sweep schema (api.SweepAppResult).
type Cell struct {
	Scheme  Scheme  `json:"scheme"`
	Cycles  int64   `json:"cycles"`
	Speedup float64 `json:"speedup"` // vs BSL
	L2Txn   uint64  `json:"l2_read_transactions"`
	L2Norm  float64 `json:"l2_norm"` // vs BSL
	L1Hit   float64 `json:"l1_hit_rate"`
	AchOcc  float64 `json:"achieved_occupancy"` // absolute
	OccNorm float64 `json:"occupancy_norm"`     // vs BSL
	Agents  int     `json:"agents,omitempty"`   // active agents used (0 = n/a)
}

// AppResult holds all scheme cells for one app/arch pair, indexed by
// Scheme; the evaluation fills every one.
type AppResult struct {
	App   *workloads.App
	Arch  *arch.Arch
	Cells [PFHTOT + 1]Cell
}

// Best returns the best clustering-family speedup (the paper reports
// CLU+TOT+BPS-style bests per app).
func (r *AppResult) Best() Cell {
	best := r.Cells[BSL]
	for _, s := range []Scheme{CLU, CLUTOT, CLUTOTBPS} {
		if c := r.Cells[s]; c.Speedup > best.Speedup {
			best = c
		}
	}
	return best
}

func cellFrom(s Scheme, res *engine.Result, base *engine.Result, agents int) Cell {
	c := Cell{
		Scheme: s,
		Cycles: res.Cycles,
		L2Txn:  res.L2ReadTransactions(),
		L1Hit:  res.L1.HitRate(),
		AchOcc: res.AchievedOccupancy,
		Agents: agents,
	}
	if base != nil && res.Cycles > 0 {
		c.Speedup = float64(base.Cycles) / float64(res.Cycles)
		if base.L2ReadTransactions() > 0 {
			c.L2Norm = float64(res.L2ReadTransactions()) / float64(base.L2ReadTransactions())
		}
		if base.AchievedOccupancy > 0 {
			c.OccNorm = res.AchievedOccupancy / base.AchievedOccupancy
		}
	}
	return c
}

// Options tunes an evaluation run.
type Options struct {
	// Ctx cancels an in-flight evaluation. Every simulation the sweep
	// launches runs under it (engine.RunContext polls it at CTA-dispatch
	// boundaries), so a cancelled or expired context makes the whole
	// sweep return promptly with an error wrapping ctx.Err(). nil means
	// context.Background() — never cancelled.
	Ctx  context.Context
	Seed int64
	// Quick skips the throttle sweep (CLUTOT = CLU) for fast smoke runs.
	Quick bool
	// Parallelism caps the number of simulations in flight; values <= 1
	// run serially. Results are byte-identical for every setting (see
	// parallel.go for the determinism contract).
	Parallelism int
	// Swizzle, when non-empty, applies the named CTA tile swizzle
	// (internal/swizzle) to every application before any scheme
	// transform, so the whole matrix — including the clustered schemes —
	// evaluates the swizzled rasterization. UNLIKE Parallelism it is
	// result-affecting: cycle counts and cache statistics change with
	// the remap, which is why it is part of every result-cache key.
	Swizzle string
}

// context returns the run context, defaulting to Background.
func (o Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// config returns the engine configuration every simulation on ar runs
// under: the architecture's defaults with the seed override applied.
func (o Options) config(ar *arch.Arch) engine.Config {
	cfg := engine.DefaultConfig(ar)
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return cfg
}

// EvaluateApp runs the full scheme matrix for one application on one
// architecture.
func EvaluateApp(ar *arch.Arch, app *workloads.App, opt Options) (*AppResult, error) {
	return evaluateApp(ar, app, opt, NewRunner(opt.Parallelism))
}

// evaluateApp runs the scheme matrix on rn. BSL, RD and one CLU
// simulation per throttle candidate (core.ThrottleCandidates: the
// maximum first, which is the CLU cell) are mutually independent, so
// they form the first wave; CLU+TOT is the core.PickVote winner.
// CLU+TOT+BPS and PFH+TOT need that winner and form the second wave.
// The swizzle (opt.Swizzle) wraps underneath every scheme: BSL becomes
// the pure swizzled kernel, and the clustering transforms regroup the
// swizzled rasterization.
func evaluateApp(ar *arch.Arch, app *workloads.App, opt Options, rn *Runner) (*AppResult, error) {
	cfg := opt.config(ar)
	ctx := opt.context()
	where := fmt.Sprintf("eval %s/%s", app.Name(), ar.Name)
	clu := func(agents int) Spec { return Spec{Swizzle: opt.Swizzle, Scheme: "CLU", Agents: agents} }

	wave1 := []sim{
		simOf("BSL", Spec{Swizzle: opt.Swizzle}, app, ar),
		simOf("RD", Spec{Swizzle: opt.Swizzle, Scheme: "RD"}, app, ar),
		simOf("CLU", clu(0), app, ar),
	}
	var cands []int
	if wave1[2].err == nil {
		cands = core.ThrottleCandidates(wave1[2].k.(*core.AgentKernel).MaxAgents())
		if opt.Quick {
			cands = cands[:1]
		}
		for _, a := range cands[1:] {
			wave1 = append(wave1, simOf(fmt.Sprintf("CLU+TOT(%d)", a), clu(a), app, ar))
		}
	}
	res, err := runSims(ctx, rn, cfg, where, wave1)
	if err != nil {
		return nil, err
	}
	base := res[0]
	votes := make([]core.Vote, len(cands))
	for i, a := range cands {
		votes[i] = core.Vote{Agents: a, Cost: float64(res[2+i].Cycles)}
	}
	best := core.PickVote(votes)
	bestAgents := cands[best]

	out := &AppResult{App: app, Arch: ar}
	out.Cells[BSL] = cellFrom(BSL, base, base, 0)
	out.Cells[RD] = cellFrom(RD, res[1], base, 0)
	out.Cells[CLU] = cellFrom(CLU, res[2], base, cands[0])
	out.Cells[CLUTOT] = cellFrom(CLUTOT, res[2+best], base, bestAgents)

	// Second wave: bypass and reshaped-order prefetching at the voted
	// optimum.
	bps, pfh := clu(bestAgents), clu(bestAgents)
	bps.Bypass, pfh.Prefetch = true, true
	res, err = runSims(ctx, rn, cfg, where, []sim{simOf("BPS", bps, app, ar), simOf("PFH", pfh, app, ar)})
	if err != nil {
		return nil, err
	}
	out.Cells[CLUTOTBPS] = cellFrom(CLUTOTBPS, res[0], base, bestAgents)
	out.Cells[PFHTOT] = cellFrom(PFHTOT, res[1], base, bestAgents)
	return out, nil
}

// GeoMean returns the geometric mean of xs (1.0 for empty input).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return math.Exp(sum / float64(n))
}

// Panel is one Figure 12/13 panel: the Table 2 categories whose apps
// its geometric mean pools.
type Panel struct {
	Name string
	Cats []locality.Category
}

// Panels lists the three Figure 12/13 panels in presentation order.
var Panels = []Panel{
	{"algorithm-related", []locality.Category{locality.Algorithm}},
	{"cache-line-related", []locality.Category{locality.CacheLine}},
	{"data/write/streaming", []locality.Category{locality.Data, locality.Write, locality.Streaming}},
}

// Has reports whether app belongs to the panel.
func (p Panel) Has(app *workloads.App) bool {
	return slices.Contains(p.Cats, app.Category())
}

// PanelGeoMeans returns, per panel in Panels order, the geometric mean
// of metric over scheme's cells of the panel's apps — the G-M rows the
// paper annotates on Figures 12 and 13.
func PanelGeoMeans(results []*AppResult, scheme Scheme, metric func(Cell) float64) []float64 {
	out := make([]float64, len(Panels))
	for i, p := range Panels {
		var xs []float64
		for _, r := range results {
			if p.Has(r.App) {
				xs = append(xs, metric(r.Cells[scheme]))
			}
		}
		out[i] = GeoMean(xs)
	}
	return out
}
