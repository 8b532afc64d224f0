// Latency parameter table: the fittable subset of an Arch. Every
// latency in the Table 1 descriptors was hand-calibrated against the
// paper's Figure 2 microbenchmark; internal/calib replaces that hand
// step with a deterministic fitter, and this file is the contract
// between the two — the canonical enumeration of which fields a fit
// may move, in which order, and inside which physical bounds.
// "Analyzing and Improving Hardware Modeling of Accel-Sim" (arXiv
// 2401.10082) motivates the discipline: most simulator error traces
// back to mis-modeled latencies, and a fitter that can wander outside
// hardware-plausible ranges converts modeling error into parameter
// nonsense instead of exposing it.
package arch

import "fmt"

// LatencyParam describes one fittable latency field: an accessor pair
// over the Arch value plus the inclusive bounds the fitter must respect.
// Get/Set operate on the descriptor in place; callers that must not
// mutate a registry descriptor work on a value copy (Arch contains no
// pointers or slices, so a plain dereference copy is a deep clone).
type LatencyParam struct {
	Name     string
	Min, Max int
	Get      func(*Arch) int
	Set      func(*Arch, int)
}

// LatencyParams enumerates the fittable latencies of a descriptor in
// the canonical fit order: the three load-to-use plateaus of Figure 2
// from the fastest up, then the DRAM channel occupancy interval, then —
// only on chiplet descriptors, where it is meaningful — the interposer
// hop. The order is part of the determinism contract: a coordinate-
// descent fitter sweeping this slice front to back visits parameters
// identically on every run.
//
// Bounds are deliberately generous hardware envelopes (a Fermi-era L1
// at 20 cycles up to a pathological 400; DRAM out to 1600) — wide
// enough that every published Figure 2 measurement fits with margin,
// tight enough that a diverging fit fails loudly at a bound instead of
// silently absorbing an engine bug into a 10^6-cycle "latency".
func LatencyParams(a *Arch) []LatencyParam {
	ps := []LatencyParam{
		{
			Name: "L1Latency", Min: 20, Max: 400,
			Get: func(x *Arch) int { return x.L1Latency },
			Set: func(x *Arch, v int) { x.L1Latency = v },
		},
		{
			Name: "L2Latency", Min: 60, Max: 900,
			Get: func(x *Arch) int { return x.L2Latency },
			Set: func(x *Arch, v int) { x.L2Latency = v },
		},
		{
			Name: "DRAMLatency", Min: 120, Max: 1600,
			Get: func(x *Arch) int { return x.DRAMLatency },
			Set: func(x *Arch, v int) { x.DRAMLatency = v },
		},
		{
			Name: "DRAMInterval", Min: 1, Max: 16,
			Get: func(x *Arch) int { return x.DRAMInterval },
			Set: func(x *Arch, v int) { x.DRAMInterval = v },
		},
	}
	if a.IsChiplet() {
		ps = append(ps, LatencyParam{
			Name: "RemoteHopLatency", Min: 4, Max: 400,
			Get: func(x *Arch) int { return x.RemoteHopLatency },
			Set: func(x *Arch, v int) { x.RemoteHopLatency = v },
		})
	}
	return ps
}

// ValidateLatencies rejects descriptors whose latency table is
// physically inconsistent: every parameter must sit inside its
// LatencyParams bounds and the load-to-use plateaus must be strictly
// ordered L1 < L2 < DRAM — the ordering Figure 2 measures.
// The fitter discards any candidate this rejects, so a fit can change
// values but never the shape of the memory hierarchy.
func ValidateLatencies(a *Arch) error {
	for _, p := range LatencyParams(a) {
		v := p.Get(a)
		if v < p.Min || v > p.Max {
			return fmt.Errorf("arch: %s %s = %d outside [%d, %d]", a.Name, p.Name, v, p.Min, p.Max)
		}
	}
	if !(a.L1Latency < a.L2Latency && a.L2Latency < a.DRAMLatency) {
		return fmt.Errorf("arch: %s latencies must order L1 < L2 < DRAM, got %d / %d / %d",
			a.Name, a.L1Latency, a.L2Latency, a.DRAMLatency)
	}
	return nil
}
