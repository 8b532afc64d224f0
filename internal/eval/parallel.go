// Parallel evaluation runner. The paper's evaluation (Section 5,
// Figures 12-13) is a sweep of hundreds of independent simulations:
// every application under six schemes on four architectures, with the
// throttling degree swept per application. Each simulation constructs
// its own engine instance (engine.Run builds all per-run state,
// including the per-run RNG), kernels are built per job, and the
// workload descriptors are read-only after package init — so the jobs
// share nothing mutable and fan out across workers freely.
//
// Runner.Each is the one fan-out primitive: every sweep, comparison
// matrix and calibration pass in the tree runs its simulations through
// it. A capacity-1 runner is the serial case, not a separate path.
//
// Determinism contract: each job writes only its own result slot, and
// every selection decision (the throttle-sweep argmin, error
// precedence) is made after Each returns by scanning the slots in job
// order. Output is therefore byte-identical for any Parallelism value;
// the golden tests in determinism_test.go pin this.
package eval

import (
	"context"
	"fmt"
	"sync"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/workloads"
)

// Runner bounds the number of jobs in flight.
type Runner struct {
	sem chan struct{}
}

// NewRunner builds a Runner bounded to the given worker count; values
// below one mean a capacity-1 (serial) runner.
func NewRunner(parallelism int) *Runner {
	if parallelism < 1 {
		parallelism = 1
	}
	return &Runner{sem: make(chan struct{}, parallelism)}
}

// Each runs fn(0) .. fn(n-1), never more than the runner's capacity at
// once, waits for all of them, and returns the error with the lowest
// index (nil if none failed). fn(i) must write only state owned by
// index i.
func (r *Runner) Each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.sem <- struct{}{}
			defer func() { <-r.sem }()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sim is one simulation of a cell: the kernel a Spec built (or the
// error building it) and the label a run error carries.
type sim struct {
	label string
	k     kernel.Kernel
	err   error
}

// simOf builds sp's kernel for app on ar as a labelled simulation.
func simOf(label string, sp Spec, app *workloads.App, ar *arch.Arch) sim {
	k, _, err := sp.Kernel(app, ar)
	return sim{label: label, k: k, err: err}
}

// runSims simulates every sim on rn under cfg and returns the results in
// sim order. A build error travels in its sim's slot, so the error
// returned is the first in sim order whether it came from building or
// running; run errors are prefixed with where and the sim's label.
func runSims(ctx context.Context, rn *Runner, cfg engine.Config, where string, sims []sim) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(sims))
	err := rn.Each(len(sims), func(i int) error {
		s := sims[i]
		if s.err != nil {
			return s.err
		}
		r, err := engine.RunContext(ctx, cfg, s.k)
		if err != nil {
			return fmt.Errorf("%s %s: %w", where, s.label, err)
		}
		out[i] = r
		return nil
	})
	return out, err
}

// eachCell runs cell over every (platform, app) pair, arch-major, and
// returns the results in that order. Every cell gets its own slot on
// the outer runner (cells only assemble jobs and wait); the simulations
// inside them contend for the bounded sweep runner they are handed, so
// total concurrency stays bounded by opt.Parallelism. progress, when
// non-nil, fires once per cell as the cell finishes, failed or not;
// calls are serialized, so progress need not be safe for concurrent use.
func eachCell[T any](platforms []*arch.Arch, apps []*workloads.App, opt Options, progress func(string), what string,
	cell func(ar *arch.Arch, app *workloads.App, rn *Runner) (T, error)) ([]T, error) {
	rn := NewRunner(opt.Parallelism)
	out := make([]T, len(platforms)*len(apps))
	var progressMu sync.Mutex
	err := NewRunner(len(out)).Each(len(out), func(i int) error {
		ar, app := platforms[i/len(apps)], apps[i%len(apps)]
		var err error
		out[i], err = cell(ar, app, rn)
		if progress != nil {
			progressMu.Lock()
			progress(fmt.Sprintf("%s%s on %s", what, app.Name(), ar.Name))
			progressMu.Unlock()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PlatformResult pairs one architecture with its per-app results, in
// the presentation order of the input app slice.
type PlatformResult struct {
	Arch    *arch.Arch
	Results []*AppResult
}

// EvaluateAll runs the full (architecture x application) matrix — the
// complete Figure 12/13 sweep — fanning the underlying simulations out
// across opt.Parallelism workers. Results come back grouped by
// platform, both levels in input order, byte-identical at every
// Parallelism; the first error in presentation order wins.
func EvaluateAll(platforms []*arch.Arch, apps []*workloads.App, opt Options, progress func(string)) ([]PlatformResult, error) {
	cells, err := eachCell(platforms, apps, opt, progress, "", func(ar *arch.Arch, app *workloads.App, rn *Runner) (*AppResult, error) {
		return evaluateApp(ar, app, opt, rn)
	})
	if err != nil {
		return nil, err
	}
	out := make([]PlatformResult, len(platforms))
	for i, ar := range platforms {
		out[i] = PlatformResult{Arch: ar, Results: cells[i*len(apps) : (i+1)*len(apps) : (i+1)*len(apps)]}
	}
	return out, nil
}
