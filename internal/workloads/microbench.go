package workloads

import (
	"fmt"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/locality"
)

// Microbench is the Listing-3 microbenchmark that verifies spatial and
// temporal inter-CTA locality on L1 (Section 3.1, Figure 2). Each CTA is
// one warp whose primary thread loads input[32*%smid] — an address all
// CTAs resident on the same SM share — between two timestamps. The
// staggered variant busy-waits DELAY*blockIdx cycles first so the
// simultaneous CTAs of a turnaround cannot aggregate their requests,
// exposing pure spatial reuse.
type Microbench struct {
	ar        *arch.Arch
	staggered bool
	delay     int
	turns     int
	input     uint64
}

// MicrobenchDelay is the Listing-3 DELAY constant: long enough for the
// previous CTA's data to arrive in L1 before its peers fetch.
const MicrobenchDelay = 1200

// NewMicrobench builds the microbenchmark for an architecture with the
// paper's CTA count: SMs x CTA_slots x turnarounds (4 turnarounds on
// Fermi/Kepler, 2 on Maxwell/Pascal — Listing 3 lines 18-21).
func NewMicrobench(ar *arch.Arch, staggered bool) *Microbench {
	turns := 4
	if ar.Gen == arch.Maxwell || ar.Gen == arch.Pascal {
		turns = 2
	}
	return &Microbench{
		ar:        ar,
		staggered: staggered,
		delay:     MicrobenchDelay,
		turns:     turns,
		input:     0x2000_0000,
	}
}

// Name identifies the variant.
func (m *Microbench) Name() string {
	if m.staggered {
		return "microbench-staggered"
	}
	return "microbench"
}

// GridDim launches SMs*CTASlots*turnarounds single-warp CTAs.
func (m *Microbench) GridDim() kernel.Dim3 {
	return kernel.Dim1(m.ar.SMs * m.ar.CTASlots * m.turns)
}

// Turnarounds returns the per-SM turnaround count of the configuration.
func (m *Microbench) Turnarounds() int { return m.turns }

// BlockDim is one warp.
func (m *Microbench) BlockDim() kernel.Dim3 { return kernel.Dim1(32) }

// WarpsPerCTA is 1 so all hardware CTA slots can fill (Section 3.1).
func (m *Microbench) WarpsPerCTA() int { return 1 }

// RegsPerThread is small enough never to limit occupancy.
func (m *Microbench) RegsPerThread(arch.Generation) int { return 16 }

// SharedMemPerCTA covers s_tmp.
func (m *Microbench) SharedMemPerCTA() int { return 4 }

// Category: the microbenchmark is definitionally algorithm-related.
func (m *Microbench) Category() locality.Category { return locality.Algorithm }

// Work emits the Listing-3 body: optional stagger, then the timed load
// of input[32*sm_id] by the primary thread.
func (m *Microbench) Work(l kernel.Launch) kernel.CTAWork {
	ws := l.WarpBufs(1)
	ops := ws[0]
	if m.staggered {
		ops = append(ops, kernel.Compute(m.delay*(l.CTA%(m.ar.SMs*m.ar.CTASlots))))
	}
	// idx = 32*sm_id: one float per SM, 128 bytes apart.
	addr := m.input + uint64(l.SM)*128
	ops = append(ops,
		kernel.Barrier(),
		kernel.Load(addr, 0, 1, 4),
		kernel.Barrier(),
		kernel.Store(m.input+0x100_0000+uint64(l.CTA)*4, 0, 1, 4), // smids/ticks
	)
	ws[0] = ops
	return kernel.CTAWork{Warps: ws}
}

// Figure2Point is one x-axis sample of a Figure 2 subplot: a CTA that
// ran on the SM holding CTA-0 and its measured access delay.
type Figure2Point struct {
	CTA    int
	Cycles float64
}

// Figure2Series extracts the Figure 2 series from a microbenchmark run:
// the CTAs dispatched to the SM that held CTA-0, in dispatch order, with
// their average access latency, plus the profiler counters on that SM
// (L1 read transactions and L1 misses; multiply misses by
// arch.L2TransactionsPerL1Miss for the L1->L2 read transaction count).
func Figure2Series(res *engine.Result) (points []Figure2Point, l1Reads, l1Misses uint64) {
	if len(res.CTAs) == 0 {
		return nil, 0, 0
	}
	sm0 := res.CTAs[0].SM
	for _, id := range res.PerSM[sm0] {
		rec := res.CTAs[id]
		points = append(points, Figure2Point{CTA: id, Cycles: rec.AvgAccessCycles()})
	}
	st := res.L1PerSM[sm0]
	return points, st.Reads, st.ReadMisses
}

// RunMicrobench runs both Figure 2 scenarios for an architecture and
// returns (default, staggered) results. ar may be a candidate latency
// table (internal/calib's fitter simulates its candidates here).
func RunMicrobench(ar *arch.Arch) (def, stag *engine.Result, err error) {
	cfg := engine.DefaultConfig(ar)
	def, err = engine.Run(cfg, NewMicrobench(ar, false))
	if err != nil {
		return nil, nil, fmt.Errorf("microbench %s: %w", ar.Name, err)
	}
	stag, err = engine.Run(cfg, NewMicrobench(ar, true))
	if err != nil {
		return nil, nil, fmt.Errorf("microbench %s staggered: %w", ar.Name, err)
	}
	return def, stag, nil
}
