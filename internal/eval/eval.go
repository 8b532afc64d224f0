// Package eval drives the paper's evaluation (Section 5): it runs every
// application under the six schemes of Figures 12 and 13 — BSL, RD, CLU,
// CLU+TOT, CLU+TOT+BPS and PFH+TOT — on each architecture, sweeping the
// throttling degree the way the paper's dynamic CTA voting scheme picks
// the optimal number of active agents.
package eval

import (
	"context"
	"fmt"
	"math"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/prof"
	"ctacluster/internal/swizzle"
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

// throttleCandidates picks the agent counts the voting sweep tries.
func throttleCandidates(max int) []int {
	set := map[int]bool{}
	var out []int
	add := func(v int) {
		if v >= 1 && v <= max && !set[v] {
			set[v] = true
			out = append(out, v)
		}
	}
	add(1)
	add(2)
	add(3)
	add(4)
	add(max / 2)
	add(max)
	return out
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
	// ProfileDir, when non-empty, attaches a profiler to every
	// simulation the sweep runs and writes one Chrome trace JSON and
	// one nvprof-style metrics CSV per cell into the directory (see
	// profile.go). Output bytes are identical for every Parallelism.
	ProfileDir string
	// ProfileInterval is the counter-snapshot period in cycles for
	// profiled sweeps; 0 means DefaultProfileInterval.
	ProfileInterval int64
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
	return evaluateApp(ar, app, opt, newRunner(opt.Parallelism))
}

// evaluateApp runs the scheme matrix on rn. The BSL, RD, CLU and
// throttle-sweep simulations are mutually independent, so they form the
// first wave of jobs; CLU+TOT+BPS and PFH+TOT need the swept optimal
// agent count and form the second. All selection (the sweep argmin,
// error precedence) scans gathered results in the serial stage order,
// keeping the outcome identical for any worker count.
func evaluateApp(ar *arch.Arch, app *workloads.App, opt Options, rn *runner) (*AppResult, error) {
	cfg := engine.DefaultConfig(ar)
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}

	// The swizzle wraps underneath every scheme: BSL becomes the pure
	// swizzled kernel, and the clustering transforms regroup the
	// swizzled rasterization (partition direction still derives from
	// the app's reference structure, which the wrapper forwards).
	var baseK kernel.Kernel = app
	if opt.Swizzle != "" {
		// WrapFor, not Wrap: the die-aware family (dieblock) derives its
		// permutation from the platform descriptor.
		sw, err := swizzle.WrapFor(opt.Swizzle, app, ar)
		if err != nil {
			return nil, err
		}
		baseK = sw
	}

	// sim builds a job that runs its own engine instance over k and
	// parks the result (or the scheme-labelled error) in its own slots.
	// Profiled sweeps attach a per-job trace and dump it on completion;
	// each job writes its own distinct files.
	ctx := opt.context()
	sim := func(k kernel.Kernel, dst **engine.Result, slot *error, label string) func() {
		return func() {
			runCfg := cfg
			var tr *prof.Trace
			if opt.ProfileDir != "" {
				tr = newProfileTrace(ar, app, label, opt)
				runCfg.Profiler = tr
			}
			r, err := engine.RunContext(ctx, runCfg, k)
			if err != nil {
				*slot = fmt.Errorf("eval %s/%s %s: %w", app.Name(), ar.Name, label, err)
				return
			}
			*dst = r
			if tr != nil {
				if err := writeProfile(opt.ProfileDir, tr, r); err != nil {
					*slot = err
				}
			}
		}
	}

	// First wave: construct every independent kernel up front
	// (construction is cheap and deterministic), then simulate.
	var stages stageList
	var jobs []func()

	var base *engine.Result
	jobs = append(jobs, sim(baseK, &base, stages.add(), "BSL"))

	// RD: redirection-based clustering along the app's partition order.
	var rdRes *engine.Result
	rd, rdErr := core.Redirect(baseK, ar.SMs, app.Partition(), nil)
	if rdErr != nil {
		stages.addErr(rdErr)
	} else {
		jobs = append(jobs, sim(rd, &rdRes, stages.add(), "RD"))
	}

	// CLU: agent-based clustering, all allowable agents active.
	var cluRes *engine.Result
	clu, cluErr := core.NewAgent(baseK, core.AgentConfig{Arch: ar, Indexing: app.Partition()})
	if cluErr != nil {
		stages.addErr(cluErr)
	} else {
		jobs = append(jobs, sim(clu, &cluRes, stages.add(), "CLU"))
	}

	// CLU+TOT sweep candidates (the dynamic voting scheme): one
	// independent simulation per throttle degree. candRes is sized
	// before any job captures an element pointer.
	var cands []int
	var candRes []*engine.Result
	if cluErr == nil && !opt.Quick {
		for _, a := range throttleCandidates(clu.MaxAgents()) {
			if a != clu.MaxAgents() { // max is already measured as CLU
				cands = append(cands, a)
			}
		}
		candRes = make([]*engine.Result, len(cands))
		for i, a := range cands {
			tk, err := core.NewAgent(baseK, core.AgentConfig{Arch: ar, Indexing: app.Partition(), ActiveAgents: a})
			if err != nil {
				stages.addErr(err)
				cands, candRes = cands[:i], candRes[:i]
				break
			}
			jobs = append(jobs, sim(tk, &candRes[i], stages.add(),
				fmt.Sprintf("CLU+TOT(%d)", a)))
		}
	}

	rn.do(jobs...)
	if err := stages.first(); err != nil {
		return nil, err
	}

	out := &AppResult{App: app, Arch: ar, Cells: map[Scheme]Cell{}}
	out.Cells[BSL] = cellFrom(BSL, base, base, 0)
	out.Cells[RD] = cellFrom(RD, rdRes, base, 0)
	out.Cells[CLU] = cellFrom(CLU, cluRes, base, clu.MaxAgents())

	// Pick the optimal throttle by scanning in candidate order — the
	// same first-best-wins tie-break the serial sweep applied.
	bestRes, bestAgents := cluRes, clu.MaxAgents()
	for i, r := range candRes {
		if r.Cycles < bestRes.Cycles {
			bestRes, bestAgents = r, cands[i]
		}
	}
	out.Cells[CLUTOT] = cellFrom(CLUTOT, bestRes, base, bestAgents)

	// Second wave: the two schemes that depend on the swept optimum.
	var phase2 stageList
	var wave2 []func()

	// CLU+TOT+BPS: bypass streaming accesses at the optimal throttle.
	var bpsRes *engine.Result
	bps, bpsErr := core.NewAgent(baseK, core.AgentConfig{
		Arch: ar, Indexing: app.Partition(), ActiveAgents: bestAgents, Bypass: true,
	})
	if bpsErr != nil {
		phase2.addErr(bpsErr)
	} else {
		wave2 = append(wave2, sim(bps, &bpsRes, phase2.add(), "BPS"))
	}

	// PFH+TOT: reshaped order + prefetching at the optimal throttle.
	var pfhRes *engine.Result
	pfh, pfhErr := core.NewAgent(baseK, core.AgentConfig{
		Arch: ar, Indexing: app.Partition(), ActiveAgents: bestAgents, Prefetch: true,
	})
	if pfhErr != nil {
		phase2.addErr(pfhErr)
	} else {
		wave2 = append(wave2, sim(pfh, &pfhRes, phase2.add(), "PFH"))
	}

	rn.do(wave2...)
	if err := phase2.first(); err != nil {
		return nil, err
	}
	out.Cells[CLUTOTBPS] = cellFrom(CLUTOTBPS, bpsRes, base, bestAgents)
	out.Cells[PFHTOT] = cellFrom(PFHTOT, pfhRes, base, bestAgents)

	return out, nil
}

// Evaluate runs the scheme matrix for a set of apps, reporting progress.
// With opt.Parallelism > 1 the per-app evaluations (and the simulations
// within each) fan out across workers; the returned slice is always in
// input order and byte-identical to the serial result.
func Evaluate(ar *arch.Arch, apps []*workloads.App, opt Options, progress func(string)) ([]*AppResult, error) {
	m, err := evaluateMatrix(newRunner(opt.Parallelism), []*arch.Arch{ar}, apps, opt, progress)
	if err != nil {
		return nil, err
	}
	return m[0], nil
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
