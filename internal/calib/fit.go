package calib

// The deterministic latency fitter: coordinate descent over the
// arch.LatencyParams table, minimizing the RMS relative error between
// the microbenchmark's Figure 2 plateaus and the paper's points
// (figure2.go). Determinism is structural, not statistical — there is
// no randomness anywhere in the loop:
//
//   - parameters are visited in the canonical LatencyParams order;
//   - each parameter tries a fixed offset ladder (±1 … ±64) in a fixed
//     order, and only a *strictly* lower objective displaces the
//     incumbent, so the earliest-listed of equal candidates wins;
//   - every candidate is simulated with the same engine seed.
//
// Two fits of the same (descriptor, reference, options) are therefore
// deeply equal — the same discipline every other subsystem in this
// repo is held to. The fitter works on value copies throughout and
// never mutates the registry descriptor it is handed. A parameter the
// shown points do not depend on (DRAMInterval; L2Latency on
// Fermi/Kepler) never moves, since only a strict improvement does.

import (
	"fmt"
	"strconv"
	"strings"

	"ctacluster/internal/arch"
)

// fitOffsets is the candidate ladder each coordinate tries per sweep,
// nearest first: a strict-improvement rule plus nearest-first ordering
// means a tie between a small and a large step keeps the small one,
// so the fit cannot wander along flat regions of the objective.
var fitOffsets = []int{-1, 1, -2, 2, -4, 4, -8, 8, -16, 16, -32, 32, -64, 64}

// maxSweeps bounds the coordinate-descent passes. Convergence is
// typically 2-3 sweeps; the bound exists so a pathological reference
// terminates.
const maxSweeps = 8

// FitOptions tunes a fit.
type FitOptions struct {
	// Start, when non-nil, seeds the descent from this descriptor's
	// latency values instead of the fitted platform's committed ones —
	// the recovery tests start from deliberately perturbed tables.
	// Must describe the same platform (same name) as the fit target.
	Start *arch.Arch
}

// ParamFit records one parameter's journey through a fit.
type ParamFit struct {
	Name     string
	From, To int
}

// FitResult is a completed fit: the fitted descriptor (a copy — the
// registry is never touched), the objective before and after, and the
// per-parameter moves.
type FitResult struct {
	// Arch is the fitted descriptor: the target platform with the
	// fitted latency values applied.
	Arch *arch.Arch
	// Params holds one entry per fitted parameter in canonical order,
	// From the start value and To the fitted one.
	Params []ParamFit
	// Before and After are the objective — the RMS relative error of
	// the shown Figure 2 points — at the start and fitted tables.
	// After <= Before always (descent only moves on strict
	// improvement).
	Before, After float64
	// Sweeps is the number of full coordinate passes run (the last one
	// made no move); Evals counts distinct simulated latency tables.
	Sweeps, Evals int
}

// Changed reports the parameters a fit actually moved.
func (r *FitResult) Changed() []ParamFit {
	var out []ParamFit
	for _, p := range r.Params {
		if p.From != p.To {
			out = append(out, p)
		}
	}
	return out
}

// Fit runs the coordinate descent for one platform against the
// paper's Figure 2 points in the reference store.
func Fit(ar *arch.Arch, ref *Reference, opt FitOptions) (*FitResult, error) {
	if _, err := ref.figure2Points(ar.Name, nil); err != nil {
		return nil, err
	}
	work := *ar // value copy: Arch has no pointers, this is a deep clone
	if opt.Start != nil {
		if opt.Start.Name != ar.Name {
			return nil, fmt.Errorf("calib: fit start descriptor is %q, target is %q", opt.Start.Name, ar.Name)
		}
		start := *opt.Start
		for _, p := range arch.LatencyParams(&start) {
			v := p.Get(&start)
			p.Set(&work, v)
		}
	}
	if err := arch.ValidateLatencies(&work); err != nil {
		return nil, fmt.Errorf("calib: fit start table invalid: %w", err)
	}

	obj := &objective{ref: ref, memo: map[string]float64{}}
	params := arch.LatencyParams(&work)
	res := &FitResult{}
	for _, p := range params {
		res.Params = append(res.Params, ParamFit{Name: p.Name, From: p.Get(&work)})
	}
	best, err := obj.eval(&work)
	if err != nil {
		return nil, err
	}
	res.Before = best

	for sweep := 0; sweep < maxSweeps; sweep++ {
		res.Sweeps++
		moved := false
		for _, p := range params {
			cur := p.Get(&work)
			bestV := cur
			for _, off := range fitOffsets {
				v := cur + off
				if v < p.Min || v > p.Max {
					continue
				}
				p.Set(&work, v)
				if arch.ValidateLatencies(&work) != nil {
					continue
				}
				score, err := obj.eval(&work)
				if err != nil {
					p.Set(&work, bestV)
					return nil, err
				}
				if score < best {
					best, bestV = score, v
					moved = true
				}
			}
			p.Set(&work, bestV)
		}
		if !moved {
			break
		}
	}

	res.After = best
	res.Evals = len(obj.memo)
	fitted := work
	res.Arch = &fitted
	for i, p := range params {
		res.Params[i].To = p.Get(&fitted)
	}
	return res, nil
}

// objective memoizes Figure 2 point errors by latency-table key, so the
// descent never simulates the same candidate twice.
type objective struct {
	ref  *Reference
	memo map[string]float64
}

func (o *objective) eval(a *arch.Arch) (float64, error) {
	key := latencyKey(a)
	if v, ok := o.memo[key]; ok {
		return v, nil
	}
	shown, err := plateaus(a)
	if err != nil {
		return 0, err
	}
	pts, err := o.ref.figure2Points(a.Name, shown)
	if err != nil {
		return 0, err
	}
	v := rms(pts)
	o.memo[key] = v
	return v, nil
}

// latencyKey renders the fittable values as a memo key.
func latencyKey(a *arch.Arch) string {
	var b strings.Builder
	for _, p := range arch.LatencyParams(a) {
		b.WriteString(strconv.Itoa(p.Get(a)))
		b.WriteByte('/')
	}
	return b.String()
}
