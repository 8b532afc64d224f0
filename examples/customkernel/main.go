// Example customkernel shows the adoption path for code that is not one
// of the built-in benchmarks: implement the Kernel interface for your
// own workload, hand it to the simulator, and apply CTA-Clustering.
//
// The kernel modelled here is a 1D time-tiled heat equation sweep:
// each CTA updates a segment of a rod and re-reads its neighbours'
// boundary cells — classic algorithm-related inter-CTA locality along
// X, discovered automatically by the framework from the ArrayRefs
// metadata.
package main

import (
	"fmt"
	"log"

	"ctacluster"
)

// heat1D is a user-defined kernel: one warp per CTA, each CTA owns a
// 512B rod segment and reads one line of halo on each side per sweep.
type heat1D struct {
	segments int
	sweeps   int
	rod      uint64
	out      uint64
}

func newHeat1D(segments, sweeps int) *heat1D {
	as := ctacluster.NewAddressSpace()
	return &heat1D{
		segments: segments,
		sweeps:   sweeps,
		rod:      as.Alloc(segments * 512),
		out:      as.Alloc(segments * 512),
	}
}

func (h *heat1D) Name() string                            { return "heat1d" }
func (h *heat1D) GridDim() ctacluster.Dim3                { return ctacluster.Dim1(h.segments) }
func (h *heat1D) BlockDim() ctacluster.Dim3               { return ctacluster.Dim1(32) }
func (h *heat1D) WarpsPerCTA() int                        { return 1 }
func (h *heat1D) RegsPerThread(ctacluster.Generation) int { return 24 }
func (h *heat1D) SharedMemPerCTA() int                    { return 0 }

// ArrayRefs feeds the framework's dependence analysis: the rod reference
// is bx-based, so clustering chunks the 1D grid (X-partitioning).
func (h *heat1D) ArrayRefs() []ctacluster.ArrayRef {
	return []ctacluster.ArrayRef{
		{Array: "rod", DependsBX: true, Fastest: ctacluster.CoordBX},
		{Array: "out", DependsBX: true, Fastest: ctacluster.CoordBX, Write: true},
	}
}

// Work appends the CTA's one warp trace to l.Buf, as every kernel must:
// the simulator recycles trace storage through it, and the clustering
// transforms pass their accumulated traces for the kernel to extend.
func (h *heat1D) Work(l ctacluster.Launch) ctacluster.CTAWork {
	seg := h.rod + uint64(l.CTA*512)
	ws := l.WarpBufs(1)
	ops := ws[0]
	for s := 0; s < h.sweeps; s++ {
		// Own segment: four 128B lines.
		for j := 0; j < 4; j++ {
			ops = append(ops, ctacluster.Load(seg+uint64(j*128), 4, 32, 4))
		}
		// Halo lines owned by the left and right neighbour CTAs.
		ops = append(ops, ctacluster.Load(seg-128, 4, 32, 4))
		ops = append(ops, ctacluster.Load(seg+512, 4, 32, 4))
		ops = append(ops, ctacluster.Compute(20))
		ops = append(ops, ctacluster.Store(h.out+uint64(l.CTA*512), 4, 32, 4))
	}
	ws[0] = ops
	return ctacluster.CTAWork{Warps: ws}
}

func main() {
	log.SetFlags(0)

	k := newHeat1D(360, 3)
	for _, ar := range ctacluster.Platforms() {
		base, err := ctacluster.Simulate(ar, k)
		if err != nil {
			log.Fatal(err)
		}

		// Vote on the throttling degree like the runtime scheme would.
		vote, err := ctacluster.VoteAgents(k, ar, ctacluster.ClusterOptions{
			Indexing: ctacluster.ColMajor, // X-partition the 1D grid
		})
		if err != nil {
			log.Fatal(err)
		}
		opt, err := ctacluster.Simulate(ar, vote.Best)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s baseline %7d cycles | clustered(%d agents) %7d cycles | %.2fx, L2 txns %.0f%%\n",
			ar.Name, base.Cycles, vote.Agents, opt.Cycles,
			ctacluster.Speedup(base, opt),
			100*float64(opt.L2ReadTransactions())/float64(base.L2ReadTransactions()))
	}

	q := ctacluster.Quantify(k, 32)
	fmt.Printf("\nreuse profile: %s\n", q)
	fmt.Println("(the halo lines are the inter-CTA share; clustering keeps each")
	fmt.Println("rod neighbourhood on one SM so they hit in L1)")
}
