package calib

// Simulated Figure 2 curves and the curve-error metric the fitter
// minimizes. The reference stores the per-CTA series exactly as
// workloads.Figure2Series extracts them; the error between a simulated
// and a reference series is the root-mean-square of per-point
// *relative* errors — relative, so the DRAM-latency head of the curve
// (hundreds of cycles) cannot drown the L1-hit tail (tens), which is
// where most of Figure 2's information lives. Points past the shorter
// series count as 100% error each: a candidate latency table that
// changes how many CTAs the SM under measurement receives is wrong in
// a way truncating the comparison would hide.

import (
	"math"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/workloads"
)

// simCurves runs both Figure 2 scenarios for ar and extracts the
// per-CTA series in reference form. Everything runs under
// engine.DefaultConfig: calibration compares against references
// generated at the same seed.
func simCurves(ar *arch.Arch) (def, stag []CurvePoint, err error) {
	rdef, rstag, err := workloads.RunMicrobench(ar)
	if err != nil {
		return nil, nil, err
	}
	return curveFrom(rdef), curveFrom(rstag), nil
}

// curveFrom converts an engine result into reference curve points.
func curveFrom(res *engine.Result) []CurvePoint {
	pts, _, _ := workloads.Figure2Series(res)
	out := make([]CurvePoint, len(pts))
	for i, p := range pts {
		out[i] = CurvePoint{CTA: p.CTA, Cycles: p.Cycles}
	}
	return out
}

// accumCurveErr adds one series pair's squared relative errors into
// (sumSq, n). Reference cycles are floored at one cycle so a zero-cost
// reference point cannot divide by zero.
func accumCurveErr(sim, ref []CurvePoint, sumSq *float64, n *int) {
	common := min(len(sim), len(ref))
	for i := 0; i < common; i++ {
		e := (sim[i].Cycles - ref[i].Cycles) / math.Max(ref[i].Cycles, 1)
		*sumSq += e * e
	}
	*n += common
	// Unmatched points on either side: 100% error each.
	extra := len(sim) + len(ref) - 2*common
	*sumSq += float64(extra)
	*n += extra
}

// CurveRMS is the pooled relative-RMS error between a simulated curve
// pair and a reference curve: both scenarios' points pooled with equal
// weight, missing/extra points counted as 100% error.
func CurveRMS(simDef, simStag []CurvePoint, ref *Curve) float64 {
	var sumSq float64
	var n int
	accumCurveErr(simDef, ref.Default, &sumSq, &n)
	accumCurveErr(simStag, ref.Staggered, &sumSq, &n)
	if n == 0 {
		return 0
	}
	return math.Sqrt(sumSq / float64(n))
}
