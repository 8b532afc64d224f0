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

// Cell is one scheme's outcome for one app on one architecture.
type Cell struct {
	Scheme  Scheme
	Cycles  int64
	Speedup float64 // vs BSL
	L2Txn   uint64
	L2Norm  float64 // vs BSL
	L1Hit   float64
	AchOcc  float64 // achieved occupancy (absolute)
	OccNorm float64 // vs BSL
	Agents  int     // active agents used (0 = n/a)
}

// AppResult holds all scheme cells for one app/arch pair.
type AppResult struct {
	App   *workloads.App
	Arch  *arch.Arch
	Cells map[Scheme]Cell
}

// Best returns the best clustering-family speedup (the paper reports
// CLU+TOT+BPS-style bests per app).
func (r *AppResult) Best() Cell {
	best := r.Cells[BSL]
	for _, s := range []Scheme{CLU, CLUTOT, CLUTOTBPS} {
		if c, ok := r.Cells[s]; ok && c.Speedup > best.Speedup {
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

// EvaluateApp runs the full scheme matrix for one application on one
// architecture.
func EvaluateApp(ar *arch.Arch, app *workloads.App, opt Options) (*AppResult, error) {
	return evaluateApp(ar, app, opt, NewRunner(opt.Parallelism))
}

// evaluateApp runs the scheme matrix on rn. The BSL, RD, CLU and
// throttle-sweep simulations are mutually independent, so they form the
// first wave; CLU+TOT+BPS and PFH+TOT need the swept optimal agent
// count and form the second. The swizzle (opt.Swizzle) wraps underneath
// every scheme: BSL becomes the pure swizzled kernel, and the
// clustering transforms regroup the swizzled rasterization.
func evaluateApp(ar *arch.Arch, app *workloads.App, opt Options, rn *Runner) (*AppResult, error) {
	cfg := engine.DefaultConfig(ar)
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	ctx := opt.context()
	where := fmt.Sprintf("eval %s/%s", app.Name(), ar.Name)
	clu := func(agents int) Spec { return Spec{Swizzle: opt.Swizzle, Scheme: "CLU", Agents: agents} }

	wave1 := []sim{
		simOf("BSL", Spec{Swizzle: opt.Swizzle}, app, ar),
		simOf("RD", Spec{Swizzle: opt.Swizzle, Scheme: "RD"}, app, ar),
		simOf("CLU", clu(0), app, ar),
	}
	// CLU+TOT sweep candidates (the dynamic voting scheme): one
	// simulation per throttle degree below the maximum, which CLU
	// already measures.
	var maxAgents int
	var cands []int
	if wave1[2].err == nil {
		maxAgents = wave1[2].k.(*core.AgentKernel).MaxAgents()
		if !opt.Quick {
			for _, a := range core.ThrottleCandidates(maxAgents) {
				if a != maxAgents {
					cands = append(cands, a)
					wave1 = append(wave1, simOf(fmt.Sprintf("CLU+TOT(%d)", a), clu(a), app, ar))
				}
			}
		}
	}
	res, err := runSims(ctx, rn, cfg, where, wave1)
	if err != nil {
		return nil, err
	}
	base, cluRes := res[0], res[2]

	out := &AppResult{App: app, Arch: ar, Cells: map[Scheme]Cell{}}
	out.Cells[BSL] = cellFrom(BSL, base, base, 0)
	out.Cells[RD] = cellFrom(RD, res[1], base, 0)
	out.Cells[CLU] = cellFrom(CLU, cluRes, base, maxAgents)

	// Pick the optimal throttle by scanning in candidate order: the
	// first strictly faster candidate wins, CLU the incumbent.
	bestRes, bestAgents := cluRes, maxAgents
	for i, r := range res[3:] {
		if r.Cycles < bestRes.Cycles {
			bestRes, bestAgents = r, cands[i]
		}
	}
	out.Cells[CLUTOT] = cellFrom(CLUTOT, bestRes, base, bestAgents)

	// Second wave: bypass and reshaped-order prefetching at the swept
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
