package calib

// The Figure 2 latency points the Listing-3 microbenchmark shows, read
// off its two per-CTA series the way the paper reads its Figure 2:
//
//   - DRAMLatency: CTA-0's access in the default scenario, the first
//     cold miss;
//   - L1Latency: the staggered scenario's last CTA, which hits in L1;
//   - L2Latency: on sectored L1s (Maxwell/Pascal) only, the staggered
//     scenario's second CTA, which reads through the other L1 sector,
//     misses there and hits in L2. On Fermi/Kepler every CTA after the
//     first hits in L1, so the microbenchmark shows no L2 point and
//     none is scored.
//
// Errors are relative, (sim-paper)/paper, so the DRAM point (hundreds
// of cycles) cannot drown the L1 point (tens).

import (
	"fmt"
	"math"

	"ctacluster/internal/arch"
	"ctacluster/internal/workloads"
)

// Point is one Figure 2 latency point: the paper's value, the
// simulator's plateau and the relative error between them.
type Point struct {
	Name   string  `json:"name"`
	Paper  float64 `json:"paper"`
	Sim    float64 `json:"sim"`
	RelErr float64 `json:"rel_err"`
}

// plateaus runs both microbenchmark scenarios on ar and returns the
// latency plateaus they show, keyed by arch.LatencyParams name.
func plateaus(ar *arch.Arch) (map[string]float64, error) {
	rdef, rstag, err := workloads.RunMicrobench(ar)
	if err != nil {
		return nil, err
	}
	def, _, _ := workloads.Figure2Series(rdef)
	stag, _, _ := workloads.Figure2Series(rstag)
	if len(def) == 0 || len(stag) < 2 {
		return nil, fmt.Errorf("calib: %s microbenchmark ran %d/%d CTAs on the SM holding CTA-0", ar.Name, len(def), len(stag))
	}
	shown := map[string]float64{
		"L1Latency":   stag[len(stag)-1].Cycles,
		"DRAMLatency": def[0].Cycles,
	}
	if ar.L1Sectored {
		shown["L2Latency"] = stag[1].Cycles
	}
	return shown, nil
}

// figure2Points pairs the plateaus a microbenchmark run showed with the
// paper's Figure 2 points for archName, in paper.csv order. A paper
// point the run does not show is left out.
func (r *Reference) figure2Points(archName string, shown map[string]float64) ([]Point, error) {
	var pts []Point
	found := false
	for _, v := range r.Paper {
		if v.Figure != 2 || v.Arch != archName {
			continue
		}
		found = true
		if sim, ok := shown[v.Metric]; ok {
			pts = append(pts, Point{Name: v.Metric, Paper: v.Value, Sim: sim, RelErr: (sim - v.Value) / v.Value})
		}
	}
	if !found {
		return nil, fmt.Errorf("calib: paper.csv has no Figure 2 points for %q", archName)
	}
	return pts, nil
}

// rms is the root-mean-square of the points' relative errors.
func rms(pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		sum += p.RelErr * p.RelErr
	}
	return math.Sqrt(sum / float64(len(pts)))
}
