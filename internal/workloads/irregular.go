package workloads

import (
	"slices"

	"ctacluster/internal/kernel"
	"ctacluster/internal/locality"
)

// The data-, write- and streaming-related applications of Table 2 —
// the categories without exploitable inter-CTA locality (Section 4.1),
// which the framework routes to order-reshaping + prefetching instead
// of clustering.

func init() {
	register("HST", newHST)
	register("BTR", newBTR)
	register("NW", newNW)
	register("BFS", newBFS)
	register("MON", newMON)
	register("DXT", newDXT)
	register("SAD", newSAD)
	register("BS", newBS)
}

// newHST is histogram64 (CUDA SDK): streams the input and scatters into
// bins; whatever inter-CTA reuse exists comes from the value
// distribution of the data (Figure 4-C).
func newHST() *App {
	const (
		ctas  = 192
		warps = 8
	)
	as := kernel.NewAddressSpace()
	data := as.Alloc(ctas * warps * 32 * 8 * 4)
	bins := as.Alloc(64 * 256)
	app := &App{
		name:      "HST",
		longName:  "histogram (64-bin histogramming)",
		grid:      kernel.Dim1(ctas),
		block:     kernel.Dim1(warps * 32),
		regs:      Regs{15, 19, 20, 15},
		smem:      1024,
		cat:       locality.Data,
		partition: kernel.ColMajor,
		optAgents: Regs{5, 5, 6, 7},
		refs: []kernel.ArrayRef{
			{Array: "data", DependsBX: true, Fastest: kernel.CoordBX},
			{Array: "bins", Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		ws := l.WarpBufs(warps)
		for w := range ws {
			gwarp := l.CTA*warps + w
			rng := lcg(uint64(gwarp)*2654435761 + 12345)
			ops := slices.Grow(ws[w], 8*2+1+2*2*(1+kernel.LaneOps(8)))
			for j := 0; j < 8; j++ {
				ops = append(ops, kernel.Load(data+uint64((gwarp*8*32+j*32)*4), 4, 32, 4).StreamingHint())
				ops = append(ops, kernel.Compute(4))
			}
			ops = append(ops, kernel.Barrier()) // smem sub-histogram merge
			// Merge the per-warp sub-histogram into the global bins the
			// data happened to select: read-modify-write, so whatever
			// inter-CTA locality exists comes from the value
			// distribution of the data (Figure 4-C).
			for j := 0; j < 2; j++ {
				var addrs [8]uint64
				for i := range addrs {
					addrs[i] = bins + uint64(rng.intn(64*64))*4
				}
				ops = kernel.AppendGather(ops, 4, addrs[:]...)
				ops = kernel.AppendScatter(ops, 4, addrs[:]...)
			}
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// newBTR is b+tree (Rodinia): per-lane root-to-leaf walks; the shared
// upper levels give accidental inter-CTA reuse, the leaves diverge.
func newBTR() *App {
	const (
		ctas   = 160
		warps  = 8
		levels = 4
	)
	as := kernel.NewAddressSpace()
	// Level l occupies nodes(l) 64B nodes: 1, 16, 256, 4096.
	var levelBase [levels]uint64
	nodes := 1
	for l := 0; l < levels; l++ {
		levelBase[l] = as.Alloc(nodes * 64)
		nodes *= 16
	}
	keys := as.Alloc(ctas * warps * 32 * 4)
	out := as.Alloc(ctas * warps * 32 * 4)
	app := &App{
		name:      "BTR",
		longName:  "b+tree (index tree lookups)",
		grid:      kernel.Dim1(ctas),
		block:     kernel.Dim1(warps * 32),
		regs:      Regs{22, 27, 29, 30},
		smem:      0,
		cat:       locality.Data,
		partition: kernel.ColMajor,
		optAgents: Regs{5, 8, 8, 8},
		refs: []kernel.ArrayRef{
			{Array: "tree"},
			{Array: "keys", DependsBX: true, Fastest: kernel.CoordBX},
			{Array: "out", DependsBX: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		ws := l.WarpBufs(warps)
		for w := range ws {
			gwarp := l.CTA*warps + w
			rng := lcg(uint64(gwarp)*40503 + 7)
			ops := slices.Grow(ws[w], 1+levels*(1+kernel.LaneOps(32)+1)+1)
			ops = append(ops, kernel.Load(keys+uint64(gwarp*32*4), 4, 32, 4).StreamingHint())
			nodes := 1
			for lv := 0; lv < levels; lv++ {
				var addrs [32]uint64
				for i := range addrs {
					addrs[i] = levelBase[lv] + uint64(rng.intn(nodes))*64
				}
				ops = kernel.AppendGather(ops, 8, addrs[:]...)
				ops = append(ops, kernel.Compute(6))
				nodes *= 16
			}
			ops = append(ops, kernel.Store(out+uint64(gwarp*32*4), 4, 32, 4))
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// newNW is needleman-wunsch (Rodinia): the score matrix is read and
// written with sub-line skews, so another CTA's store evicts the line a
// neighbour is about to reuse (write-related, Figure 4-D).
func newNW() *App {
	const (
		ctas     = 512
		cellsPer = 16 // 64B of scores per CTA: two CTAs share a 128B line
	)
	as := kernel.NewAddressSpace()
	score := as.Alloc(ctas*cellsPer*4 + 256)
	ref := as.Alloc(ctas * cellsPer * 4)
	app := &App{
		name:      "NW",
		longName:  "needleman-wunsch (DNA sequence alignment)",
		grid:      kernel.Dim1(ctas),
		block:     kernel.Dim1(32),
		regs:      Regs{28, 27, 39, 40},
		smem:      2180,
		cat:       locality.Write,
		partition: kernel.ColMajor,
		optAgents: Regs{8, 16, 16, 8},
		refs: []kernel.ArrayRef{
			{Array: "score", DependsBX: true, Fastest: kernel.CoordBX},
			{Array: "score", DependsBX: true, Fastest: kernel.CoordBX, Write: true},
			{Array: "ref", DependsBX: true, Fastest: kernel.CoordBX},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		ws := l.WarpBufs(1)
		for w := range ws {
			b := l.CTA
			base := score + uint64(b*cellsPer*4)
			ops := slices.Grow(ws[w], 2+4*3+1)
			// Read the boundary cells the previous tile produced (same
			// line another CTA writes) plus the reference sequence.
			ops = append(ops, kernel.Load(base-4, 4, cellsPer, 4))
			ops = append(ops, kernel.Load(ref+uint64(b*cellsPer*4), 4, cellsPer, 4))
			for s := 0; s < 4; s++ {
				ops = append(ops, kernel.Compute(10))
				// Anti-diagonal update: write our cells...
				ops = append(ops, kernel.Store(base, 4, cellsPer, 4))
				// ...then re-read them (write-evict already pushed the
				// line out, and the neighbour's writes keep evicting it).
				ops = append(ops, kernel.Load(base, 4, cellsPer, 4))
			}
			ops = append(ops, kernel.Store(base, 4, cellsPer, 4))
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// newBFS is bfs (Rodinia): frontier-driven neighbour gathers over an
// irregular graph plus cost writes (Table 2's Data&Writing hybrid).
func newBFS() *App {
	const (
		ctas  = 192
		warps = 8
		nodes = 1 << 16
	)
	as := kernel.NewAddressSpace()
	frontier := as.Alloc(ctas * warps * 32 * 4)
	edges := as.Alloc(nodes * 16)
	cost := as.Alloc(nodes * 4)
	app := &App{
		name:      "BFS",
		longName:  "bfs (breadth-first search)",
		grid:      kernel.Dim1(ctas),
		block:     kernel.Dim1(warps * 32),
		regs:      Regs{17, 18, 19, 20},
		smem:      0,
		cat:       locality.Data,
		alsoWrite: true,
		partition: kernel.ColMajor,
		optAgents: Regs{2, 6, 6, 7},
		refs: []kernel.ArrayRef{
			{Array: "edges"},
			{Array: "frontier", DependsBX: true, Fastest: kernel.CoordBX},
			{Array: "cost", Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		ws := l.WarpBufs(warps)
		for w := range ws {
			gwarp := l.CTA*warps + w
			rng := lcg(uint64(gwarp)*920419823 + 3)
			ops := slices.Grow(ws[w], 1+4*(1+kernel.LaneOps(32)+1)+1+kernel.LaneOps(16))
			ops = append(ops, kernel.Load(frontier+uint64(gwarp*32*4), 4, 32, 4).StreamingHint())
			for j := 0; j < 4; j++ {
				// Neighbour gathers: skewed towards low node ids so some
				// lines recur across CTAs by accident.
				var addrs [32]uint64
				for i := range addrs {
					n := rng.intn(nodes >> ((j % 2) * 4))
					addrs[i] = edges + uint64(n)*16
				}
				ops = kernel.AppendGather(ops, 8, addrs[:]...)
				ops = append(ops, kernel.Compute(4))
			}
			// Cost updates to the visited nodes.
			var addrs [16]uint64
			for i := range addrs {
				addrs[i] = cost + uint64(rng.intn(nodes))*4
			}
			ops = kernel.AppendScatter(ops, 4, addrs[:]...)
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// streamApp builds a coalesced, aligned, used-once kernel: nLoads reads
// and nStores writes per warp over private slices, plus compute.
func streamApp(name, long string, ctas, warps, nLoads, nStores, compute int,
	regs Regs, smem int, opt Regs) *App {
	as := kernel.NewAddressSpace()
	in := as.Alloc(ctas * warps * 32 * nLoads * 4)
	out := as.Alloc(ctas * warps * 32 * nStores * 4)
	app := &App{
		name:      name,
		longName:  long,
		grid:      kernel.Dim1(ctas),
		block:     kernel.Dim1(warps * 32),
		regs:      regs,
		smem:      smem,
		cat:       locality.Streaming,
		partition: kernel.ColMajor,
		optAgents: opt,
		refs: []kernel.ArrayRef{
			{Array: "in", DependsBX: true, Fastest: kernel.CoordBX},
			{Array: "out", DependsBX: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		ws := l.WarpBufs(warps)
		for w := range ws {
			gwarp := l.CTA*warps + w
			ops := slices.Grow(ws[w], nLoads+nLoads/2+nStores)
			for j := 0; j < nLoads; j++ {
				ops = append(ops, kernel.Load(in+uint64((gwarp*nLoads+j)*32*4), 4, 32, 4).StreamingHint())
				if j%2 == 1 {
					ops = append(ops, kernel.Compute(compute))
				}
			}
			for j := 0; j < nStores; j++ {
				ops = append(ops, kernel.Store(out+uint64((gwarp*nStores+j)*32*4), 4, 32, 4))
			}
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// newMON is MonteCarlo (CUDA SDK): option pricing by simulation —
// compute-bound streaming.
func newMON() *App {
	return streamApp("MON", "MonteCarlo (option pricing)",
		192, 8, 4, 2, 24, Regs{28, 28, 28, 28}, 4096, Regs{4, 4, 8, 8})
}

// newDXT is dxtc (CUDA SDK): DXT texture compression — heavy compute on
// coalesced block reads.
func newDXT() *App {
	return streamApp("DXT", "dxtc (DXT texture compression)",
		320, 2, 8, 2, 40, Regs{63, 89, 89, 91}, 2048, Regs{8, 8, 10, 10})
}

// newSAD is sad (Parboil): sum-of-absolute-differences for MPEG motion
// estimation — wide coalesced reads, small writes.
func newSAD() *App {
	return streamApp("SAD", "sad (MPEG sum of absolute differences)",
		320, 2, 10, 2, 12, Regs{43, 44, 46, 40}, 0, Regs{8, 16, 20, 20})
}

// newBS is BlackScholes (CUDA SDK): the canonical streaming kernel —
// three array reads, two writes, pure math in between.
func newBS() *App {
	return streamApp("BS", "BlackScholes (option pricing)",
		256, 4, 6, 4, 16, Regs{23, 25, 21, 19}, 0, Regs{8, 16, 16, 12})
}
