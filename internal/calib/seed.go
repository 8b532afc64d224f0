package calib

// Reference-store generation (the `ctacalib seed` path). The committed
// store is seeded from the simulator's own output at the committed
// latency tables — the tables are the paper-calibrated values, so the
// curves are the reproduction's rendering of Figure 2 and the paper
// annotation records the published latency plateaus each curve was
// calibrated against. Seeding from the simulator rather than
// hand-transcribing plot pixels keeps the store exact (byte-pinnable)
// while the annotation keeps the paper linkage auditable.

import (
	"fmt"

	"ctacluster/internal/arch"
	"ctacluster/internal/eval"
	"ctacluster/internal/workloads"
)

// ReferenceChiplets is the die count of the chiplet curve variants the
// seed generates alongside each monolithic platform; two dies is the
// smallest configuration that exercises RemoteHopLatency, which makes
// the parameter fittable.
const ReferenceChiplets = 2

// paperPoints renders a descriptor's committed latency table as the
// curve's paper annotation, in canonical LatencyParams order.
func paperPoints(a *arch.Arch) []PaperPoint {
	var out []PaperPoint
	for _, p := range arch.LatencyParams(a) {
		out = append(out, PaperPoint{Name: p.Name, Cycles: p.Get(a)})
	}
	return out
}

// BuildReference generates the full reference store: one Figure 2 curve
// per platform plus its 2-die chiplet variant, and the per-app targets
// for the (platform, app) matrix. Deterministic and byte-identical at
// every ReportOptions setting, like everything else in this package.
func BuildReference(platforms []*arch.Arch, apps []*workloads.App, opt ReportOptions) (*Reference, error) {
	var curveArches []*arch.Arch
	for _, ar := range platforms {
		chip, err := arch.WithChiplets(ar, ReferenceChiplets)
		if err != nil {
			return nil, fmt.Errorf("calib: seed %s: %w", ar.Name, err)
		}
		curveArches = append(curveArches, ar, chip)
	}

	type slot struct {
		def, stag []CurvePoint
		err       error
	}
	slots := make([]slot, len(curveArches))
	var jobs []func()
	for i, ar := range curveArches {
		s, ar := &slots[i], ar
		jobs = append(jobs, func() {
			s.def, s.stag, s.err = simCurves(ar)
		})
	}
	eval.NewRunner(opt.Parallelism).Do(jobs...)

	ref := &Reference{}
	for i, ar := range curveArches {
		s := slots[i]
		if s.err != nil {
			return nil, fmt.Errorf("calib: seed %s: %w", ar.Name, s.err)
		}
		ref.Curves = append(ref.Curves, &Curve{
			Arch:      ar.Name,
			Chiplets:  ar.Chiplets,
			Paper:     paperPoints(ar),
			Default:   s.def,
			Staggered: s.stag,
		})
	}

	cells, err := simMatrix(platforms, apps, opt)
	if err != nil {
		return nil, err
	}
	for pi, ar := range platforms {
		for ai, app := range apps {
			ref.Apps = append(ref.Apps, AppTarget{
				Arch:    ar.Name,
				App:     app.Name(),
				Cycles:  cells[pi][ai].cycles,
				Speedup: cells[pi][ai].speedup,
			})
		}
	}
	return ref, nil
}
