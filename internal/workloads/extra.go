package workloads

import (
	"slices"

	"ctacluster/internal/kernel"
	"ctacluster/internal/locality"
)

// The additional applications that appear only in the Figure 3 reuse
// quantification (the paper quantifies 33 applications but evaluates 23
// of them; this reproduction additionally promotes COR — see
// correlation.go — to a full Table 2 characterization). They are built from four generic pattern generators —
// stencil, shared-table, strided-butterfly and random-gather — with
// per-application parameters that set their inter-/intra-CTA reuse mix.

func init() {
	register("GES", func() *App {
		return columnWalk("GES", "gesummv (PolyBench summed matrix-vector)",
			48, 4, 192, Regs{15, 18, 18, 21}, Regs{1, 1, 2, 2})
	})
	register("LUD", func() *App {
		return stencilApp("LUD", "lud (LU decomposition)", 14, 14, 4, 64, 20,
			locality.Algorithm, Regs{24, 30, 28, 31})
	})
	register("PFD", func() *App {
		return stencilApp("PFD", "pathfinder (dynamic programming grid)", 20, 8, 4, 32, 8,
			locality.Algorithm, Regs{16, 18, 20, 22})
	})
	register("STD", func() *App {
		return stencilApp("STD", "stencil (Parboil 7-point)", 12, 12, 8, 32, 10,
			locality.Algorithm, Regs{18, 20, 22, 24})
	})
	register("SRD", func() *App {
		return stencilApp("SRD", "srad (speckle reducing anisotropic diffusion)", 16, 16, 4, 48, 14,
			locality.Algorithm, Regs{22, 26, 28, 30})
	})
	register("SR2", func() *App {
		return stencilApp("SR2", "srad2 (second SRAD kernel)", 16, 16, 4, 16, 10,
			locality.Algorithm, Regs{20, 24, 26, 28})
	})
	register("LPS", func() *App {
		return stencilApp("LPS", "laplace3d (3D Laplace solver)", 14, 14, 8, 40, 12,
			locality.Algorithm, Regs{22, 25, 27, 28})
	})
	register("FTD", func() *App {
		return stencilApp("FTD", "fdtd2d (finite-difference time domain)", 16, 12, 4, 56, 12,
			locality.CacheLine, Regs{20, 22, 24, 26})
	})
	register("HRT", func() *App {
		return gatherApp("HRT", "heartwall (tissue tracking)", 72, 8, 6, 1<<13,
			Regs{36, 40, 42, 44})
	})
	register("NE", func() *App {
		return gatherApp("NE", "nearest-neighbour queries", 64, 8, 4, 1<<15,
			Regs{18, 20, 22, 24})
	})
	register("MRI", func() *App {
		return tableApp("MRI", "mri-q (MRI reconstruction Q matrix)", 96, 4, 24, 4,
			locality.Algorithm, Regs{22, 24, 26, 28})
	})
	register("LIB", func() *App {
		return tableApp("LIB", "libor (LIBOR market model)", 80, 4, 16, 6,
			locality.Algorithm, Regs{30, 34, 36, 38})
	})
	register("BNO", func() *App {
		return tableApp("BNO", "binomialOptions (lattice option pricing)", 96, 8, 12, 2,
			locality.Algorithm, Regs{24, 26, 28, 30})
	})
	register("FWT", func() *App {
		return butterflyApp("FWT", "fastWalshTransform (butterfly passes)", 96, 8, 5,
			Regs{16, 18, 20, 22})
	})
	register("SLA", func() *App {
		return butterflyApp("SLA", "scanLargeArray (multi-pass prefix scan)", 112, 8, 4,
			Regs{14, 16, 18, 20})
	})
	register("SP", func() *App {
		return streamApp("SP", "scalarProd (batched dot products)",
			112, 4, 8, 1, 10, Regs{18, 20, 20, 22}, 2048, Regs{8, 16, 16, 16})
	})
}

// stencilApp is a generic 2D stencil with a halo of haloBytes bytes on
// each side of a tileBytes-per-warp row: the halo is re-read by the
// X-adjacent CTA, giving algorithm (or, when the skew is sub-line,
// cache-line) inter-CTA locality.
func stencilApp(name, long string, gx, gy, warps, haloBytes, compute int,
	cat locality.Category, regs Regs) *App {
	rowLen := gx*128 + 256 // bytes per row
	as := kernel.NewAddressSpace()
	in := as.Alloc(rowLen * (gy*warps + 2))
	out := as.Alloc(rowLen * gy * warps)
	grid := kernel.Dim2(gx, gy)
	app := &App{
		name:      name,
		longName:  long,
		grid:      grid,
		block:     kernel.Dim1(warps * 32),
		regs:      regs,
		smem:      0,
		cat:       cat,
		partition: kernel.RowMajor,
		optAgents: Regs{4, 8, 8, 8},
		refs: []kernel.ArrayRef{
			{Array: "in", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX},
			{Array: "out", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		bx, by := l.CTA%gx, l.CTA/gx
		ws := l.WarpBufs(warps)
		for w := range ws {
			row := by*warps + w
			base := in + uint64((row+1)*rowLen+bx*128)
			ws[w] = append(ws[w],
				kernel.Load(base-uint64(rowLen), 4, 32, 4),
				kernel.Load(base-uint64(haloBytes), 4, 32, 4),
				kernel.Load(base+uint64(haloBytes), 4, 32, 4),
				kernel.Load(base+uint64(rowLen), 4, 32, 4),
				kernel.Compute(compute),
				kernel.Store(out+uint64(row*rowLen+bx*128), 4, 32, 4),
			)
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// tableApp streams private data while re-reading a globally shared
// coefficient/trajectory table of tableLoads 128B lines — the canonical
// algorithm-related sharing shape.
func tableApp(name, long string, ctas, warps, tableLoads, streamLoads int,
	cat locality.Category, regs Regs) *App {
	as := kernel.NewAddressSpace()
	table := as.Alloc(tableLoads * 128)
	in := as.Alloc(ctas * warps * 32 * streamLoads * 4)
	out := as.Alloc(ctas * warps * 32 * 4)
	app := &App{
		name:      name,
		longName:  long,
		grid:      kernel.Dim1(ctas),
		block:     kernel.Dim1(warps * 32),
		regs:      regs,
		smem:      0,
		cat:       cat,
		partition: kernel.ColMajor,
		optAgents: Regs{4, 8, 8, 8},
		refs: []kernel.ArrayRef{
			{Array: "table"},
			{Array: "in", DependsBX: true, Fastest: kernel.CoordBX},
			{Array: "out", DependsBX: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		ws := l.WarpBufs(warps)
		for w := range ws {
			gwarp := l.CTA*warps + w
			ops := slices.Grow(ws[w], streamLoads+tableLoads+tableLoads/6+1)
			for j := 0; j < streamLoads; j++ {
				ops = append(ops, kernel.Load(in+uint64((gwarp*streamLoads+j)*32*4), 4, 32, 4).StreamingHint())
			}
			for j := 0; j < tableLoads; j++ {
				ops = append(ops, kernel.Load(table+uint64(j*128), 4, 32, 4))
				if j%6 == 5 {
					ops = append(ops, kernel.Compute(12))
				}
			}
			ops = append(ops, kernel.Store(out+uint64(gwarp*32*4), 4, 32, 4))
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// gatherApp models irregular lookup kernels (data-related): each warp
// streams its keys then gathers records from a region of reachBytes;
// whatever reuse appears is an accident of the key distribution.
func gatherApp(name, long string, ctas, warps, gathers, reachRecords int, regs Regs) *App {
	as := kernel.NewAddressSpace()
	keys := as.Alloc(ctas * warps * 32 * 4)
	records := as.Alloc(reachRecords * 32)
	out := as.Alloc(ctas * warps * 32 * 4)
	app := &App{
		name:      name,
		longName:  long,
		grid:      kernel.Dim1(ctas),
		block:     kernel.Dim1(warps * 32),
		regs:      regs,
		smem:      0,
		cat:       locality.Data,
		partition: kernel.ColMajor,
		optAgents: Regs{4, 6, 8, 8},
		refs: []kernel.ArrayRef{
			{Array: "records"},
			{Array: "keys", DependsBX: true, Fastest: kernel.CoordBX},
			{Array: "out", DependsBX: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		ws := l.WarpBufs(warps)
		for w := range ws {
			gwarp := l.CTA*warps + w
			rng := lcg(uint64(gwarp)*11400714819323 + 99)
			ops := slices.Grow(ws[w], 1+gathers*(1+kernel.LaneOps(32)+1)+1)
			ops = append(ops, kernel.Load(keys+uint64(gwarp*32*4), 4, 32, 4).StreamingHint())
			for j := 0; j < gathers; j++ {
				var addrs [32]uint64
				for i := range addrs {
					addrs[i] = records + uint64(rng.intn(reachRecords))*32
				}
				ops = kernel.AppendGather(ops, 8, addrs[:]...)
				ops = append(ops, kernel.Compute(6))
			}
			ops = append(ops, kernel.Store(out+uint64(gwarp*32*4), 4, 32, 4))
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// butterflyApp models multi-pass butterfly/scan kernels: each pass reads
// with a doubling stride, so later passes touch lines that straddle CTA
// boundaries (cache-line flavoured intra/inter mix).
func butterflyApp(name, long string, ctas, warps, passes int, regs Regs) *App {
	as := kernel.NewAddressSpace()
	size := ctas * warps * 32 * 4 * 2
	data := as.Alloc(size)
	app := &App{
		name:      name,
		longName:  long,
		grid:      kernel.Dim1(ctas),
		block:     kernel.Dim1(warps * 32),
		regs:      regs,
		smem:      1024,
		cat:       locality.CacheLine,
		partition: kernel.ColMajor,
		optAgents: Regs{4, 6, 8, 8},
		refs: []kernel.ArrayRef{
			{Array: "data", DependsBX: true, Fastest: kernel.CoordBX},
			{Array: "data", DependsBX: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		ws := l.WarpBufs(warps)
		for w := range ws {
			gwarp := l.CTA*warps + w
			ops := slices.Grow(ws[w], passes*3)
			for p := 0; p < passes; p++ {
				stride := int64(4 << p)
				base := data + uint64((gwarp*32*4)<<1)
				ops = append(ops, kernel.Load(base, stride, 32, 4))
				ops = append(ops, kernel.Compute(6))
				ops = append(ops, kernel.Store(base, stride, 32, 4))
			}
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}
