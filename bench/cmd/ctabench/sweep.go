package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ctacluster/internal/arch"
	"ctacluster/internal/calib"
	"ctacluster/internal/eval"
	"ctacluster/internal/workloads"
)

const (
	// sweepParallelism is the eval worker count of paper-sweep: one per
	// hardware thread of the machine the benchmark was sized on.
	sweepParallelism = 2
	// sweepSeconds is about how long one full sweep takes on that
	// machine. A run measures round(d/sweepSeconds) sweeps, at least one,
	// so it takes the same number of samples on every host.
	sweepSeconds = 10
)

// sweepWorkload runs the paper's Figure 12/13 scheme matrix, throttle
// sweep included, back to back: what a researcher regenerating the
// figures with `evaluate` waits for.
type sweepWorkload struct {
	rng       *rand.Rand
	archNames []string
	appNames  []string // nil means every Table 2 app
	warmNames []string // the apps of the set-up's checked evaluation
	loadRef   func() (*calib.Reference, error)

	ref       *calib.Reference
	platforms []*arch.Arch
	apps      []*workloads.App
	samples   []simSample
}

func newSweepWorkload(rng *rand.Rand, archNames, appNames, warmNames []string) *sweepWorkload {
	return &sweepWorkload{rng: rng, archNames: archNames, appNames: appNames, warmNames: warmNames, loadRef: calib.Load}
}

func (w *sweepWorkload) setup(t *tally) error {
	ref, err := w.loadRef()
	if err != nil {
		return err
	}
	w.ref = ref
	w.platforms = w.platforms[:0]
	for _, n := range w.archNames {
		ar, err := arch.ByName(n)
		if err != nil {
			return err
		}
		w.platforms = append(w.platforms, ar)
	}
	if w.appNames == nil {
		w.apps = workloads.Table2()
	} else if w.apps, err = newApps(w.appNames); err != nil {
		return err
	}
	for _, ar := range w.platforms {
		for _, app := range w.apps {
			if _, err := ref.TargetFor(ar.Name, app.Name()); err != nil {
				return err
			}
		}
	}
	// The set-up's reference pass is a checked evaluation of a few small
	// apps; one of the full matrix would take as long as a measured sweep.
	warm, err := newApps(w.warmNames)
	if err != nil {
		return err
	}
	res, err := eval.EvaluateAll(w.platforms, warm, eval.Options{Parallelism: sweepParallelism}, nil)
	if err != nil {
		return err
	}
	t.check(w.check(res, len(warm)))
	return nil
}

func newApps(names []string) ([]*workloads.App, error) {
	apps := make([]*workloads.App, len(names))
	for i, n := range names {
		app, err := workloads.New(n)
		if err != nil {
			return nil, err
		}
		apps[i] = app
	}
	return apps, nil
}

func (w *sweepWorkload) measure(d time.Duration, tr *tracer, t *tally) ([][]float64, error) {
	var lat []float64
	for range max(1, int(math.Round(d.Seconds()/sweepSeconds))) {
		apps := make([]*workloads.App, len(w.apps))
		for i, j := range w.rng.Perm(len(w.apps)) {
			apps[i] = w.apps[j]
		}
		t0 := time.Now()
		res, err := eval.EvaluateAll(w.platforms, apps, eval.Options{Parallelism: sweepParallelism}, nil)
		el := time.Since(t0)
		if err != nil {
			t.check(err)
			continue
		}
		lat = append(lat, ms(el))
		t.check(w.check(res, len(apps)))
		if tr != nil {
			tr.add(span{Name: "eval.EvaluateAll", StartUS: tr.since(t0), DurUS: us(el), SelfUS: us(el)})
		}
	}
	return [][]float64{lat}, nil
}

// check holds every BSL cell's cycles and every CLU cell's speedup of a
// sweep over apps apps to the calibration targets, and keeps the cells as
// the sweep's simulated statistics.
func (w *sweepWorkload) check(res []eval.PlatformResult, apps int) error {
	var errs []error
	w.samples = w.samples[:0]
	for _, plat := range res {
		for _, r := range plat.Results {
			name := r.App.Name()
			errs = append(errs,
				checkTarget(w.ref, plat.Arch.Name, name, false, r.Cells[eval.BSL].Cycles),
				checkTarget(w.ref, plat.Arch.Name, name, true, r.Cells[eval.CLU].Cycles))
			for _, s := range eval.Schemes {
				c := r.Cells[s]
				w.samples = append(w.samples, simSample{cycles: c.Cycles, occupancy: c.AchOcc, l1Hit: c.L1Hit, l2ReadTxn: c.L2Txn})
			}
		}
	}
	if got, want := len(w.samples), len(w.platforms)*apps*len(eval.Schemes); got != want {
		errs = append(errs, fmt.Errorf("sweep returned %d cells, want %d", got, want))
	}
	return errors.Join(errs...)
}

func (w *sweepWorkload) layers(m metricSet, _ *phase) error {
	setSimLayers(m, w.samples)
	return nil
}

func (w *sweepWorkload) openLoop() bool { return false }

func (w *sweepWorkload) close() {}
