package workloads

import (
	"slices"

	"ctacluster/internal/kernel"
	"ctacluster/internal/locality"
)

// The seven cache-line-related applications of Table 2. Their inter-CTA
// locality is created by the architecture: a miss fetches a whole 128B
// L1 line (Fermi/Kepler) of which neighbouring CTAs consume the rest
// (Figure 4-B). On Maxwell/Pascal the 32B line leaves almost nothing to
// share, which is why the paper's gains for this category vanish there.

func init() {
	register("SYK", newSYK)
	register("S2K", newS2K)
	register("ATX", newATX)
	register("MVT", newMVT)
	register("NBO", newNBO)
	register("3CV", new3CV)
	register("BC", newBC)
}

// columnWalk builds the transpose-style access shared by ATX, MVT and
// BC: thread (w,lane) reads A[w*32+lane][col], so one warp load touches
// 32 distinct lines, each of which carries the matching element of the
// 31 neighbouring columns — columns that belong to the X-adjacent CTAs.
func columnWalk(name, long string, ctas, colsPerCTA, rows int, regs Regs, opt Regs) *App {
	const warps = 8
	ncols := ctas * colsPerCTA
	as := kernel.NewAddressSpace()
	mat := as.Alloc(rows * ncols * 4)
	vec := as.Alloc(rows * 4)
	out := as.Alloc(ncols * 4)
	app := &App{
		name:      name,
		longName:  long,
		grid:      kernel.Dim1(ctas),
		block:     kernel.Dim1(warps * 32),
		regs:      regs,
		smem:      0,
		cat:       locality.CacheLine,
		partition: kernel.ColMajor,
		optAgents: opt,
		refs: []kernel.ArrayRef{
			{Array: "A", DependsBX: true, Fastest: kernel.CoordBX},
			{Array: "x"},
			{Array: "y", DependsBX: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	rowBytes := int64(ncols * 4)
	rowsPerWarp := rows / warps
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		ws := l.WarpBufs(warps)
		for w := range ws {
			ops := slices.Grow(ws[w], colsPerCTA*2+2)
			// Shared vector segment for this warp's rows.
			ops = append(ops, kernel.Load(vec+uint64(w*rowsPerWarp*4), 4, rowsPerWarp, 4))
			for c := 0; c < colsPerCTA; c++ {
				col := l.CTA*colsPerCTA + c
				// A[w*rowsPerWarp+lane][col]: one line per active lane;
				// each line is shared with the neighbouring columns'
				// CTAs, and the same lines recur for the next column.
				ops = append(ops, kernel.Load(mat+uint64((w*rowsPerWarp*ncols+col)*4), rowBytes, rowsPerWarp, 4))
				ops = append(ops, kernel.Compute(10))
			}
			ops = append(ops, kernel.Store(out+uint64(l.CTA*colsPerCTA*4), 4, colsPerCTA, 4))
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// newATX is atax (PolyBench): matrix-transpose-times-vector.
func newATX() *App {
	return columnWalk("ATX", "atax (matrix transpose and vector multiply)",
		120, 4, 128, Regs{13, 17, 17, 22}, Regs{1, 1, 1, 1})
}

// newMVT is mvt (PolyBench): matrix-vector product and transpose.
func newMVT() *App {
	return columnWalk("MVT", "mvt (matrix vector product and transpose)",
		120, 4, 128, Regs{13, 17, 17, 22}, Regs{1, 1, 1, 1})
}

// newBC is bicg (PolyBench): the BiCGStab kernel has the same
// transposed access on its s-vector pass.
func newBC() *App {
	return columnWalk("BC", "bicg (BiCGStab linear solver kernel)",
		112, 4, 128, Regs{13, 16, 17, 22}, Regs{1, 1, 1, 8})
}

// newSYK is syrk (PolyBench): C = alpha*A*A^T + beta*C on a 2D grid.
// CTAs in the same grid column re-read the same A rows (the A[j][k]
// factor), and the 72-float row pitch keeps loads line-misaligned.
func newSYK() *App {
	return rankK("SYK", "syrk (symmetric rank-k update)", false,
		Regs{21, 26, 21, 28}, Regs{3, 2, 8, 8})
}

// newS2K is syr2k (PolyBench): the rank-2k update reads two A/B panels,
// doubling the misaligned traffic.
func newS2K() *App {
	return rankK("S2K", "syr2k (symmetric rank-2k update)", true,
		Regs{33, 38, 33, 19}, Regs{1, 1, 6, 6})
}

func rankK(name, long string, twoPanels bool, regs Regs, opt Regs) *App {
	const (
		gx, gy = 16, 16
		pitch  = 72 // floats per row: 288B, misaligned against 128B lines
		kIters = 8
	)
	as := kernel.NewAddressSpace()
	aBase := as.Alloc((gx + gy) * 32 * pitch * 4)
	bBase := as.Alloc((gx + gy) * 32 * pitch * 4)
	cBase := as.Alloc(gx * gy * 32 * 32 * 4)
	grid := kernel.Dim2(gx, gy)
	app := &App{
		name:      name,
		longName:  long,
		grid:      grid,
		block:     kernel.Dim1(256),
		regs:      regs,
		smem:      0,
		cat:       locality.CacheLine,
		partition: kernel.ColMajor,
		optAgents: opt,
		refs: []kernel.ArrayRef{
			{Array: "Aj", DependsBX: true},
			{Array: "Ai", DependsBY: true},
			{Array: "C", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		bx, by := l.CTA%gx, l.CTA/gx
		ws := l.WarpBufs(8)
		for w := range ws {
			perIter := 3
			if twoPanels {
				perIter = 4
			}
			ops := slices.Grow(ws[w], kIters*perIter+1)
			for k := 0; k < kIters; k++ {
				// A[j-block rows]: shared by the whole grid column (same bx).
				ops = append(ops, kernel.Load(aBase+uint64(((bx*32+w*4)*pitch+k*32)*4), 4, 32, 4))
				// A[i-block rows]: private to this by.
				ops = append(ops, kernel.Load(aBase+uint64(((gx*32+by*32+w*4)*pitch+k*32)*4), 4, 32, 4))
				if twoPanels {
					ops = append(ops, kernel.Load(bBase+uint64(((bx*32+w*4)*pitch+k*32)*4), 4, 32, 4))
				}
				ops = append(ops, kernel.Compute(12))
			}
			ops = append(ops, kernel.Store(cBase+uint64((l.CTA*1024+w*128)*4), 4, 32, 4))
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// newNBO is nbody (CUDA SDK): the all-pairs force loop walks every body
// tile as a 32B array-of-structures, so each float4 position load drags
// the rest of its 128B line in — data the other CTAs' tiles want.
func newNBO() *App {
	const (
		gx, gy = 12, 10
		bodies = 2048
		tiles  = 8
		stride = 32 // bytes per body record (AoS)
	)
	as := kernel.NewAddressSpace()
	bodyArr := as.Alloc(bodies * stride)
	outArr := as.Alloc(gx * gy * 256 * 16)
	grid := kernel.Dim2(gx, gy)
	app := &App{
		name:      "NBO",
		longName:  "nbody (all-pairs gravitational simulation)",
		grid:      grid,
		block:     kernel.Dim1(256),
		regs:      Regs{24, 38, 35, 46},
		smem:      0,
		cat:       locality.CacheLine,
		partition: kernel.RowMajor,
		optAgents: Regs{2, 4, 5, 2},
		refs: []kernel.ArrayRef{
			{Array: "bodies", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX},
			{Array: "accel", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		bx, by := l.CTA%gx, l.CTA/gx
		ws := l.WarpBufs(8)
		for w := range ws {
			ops := slices.Grow(ws[w], tiles*2+2)
			// Own body positions (AoS: 16B of each 32B record).
			own := (by*gx + bx) % (bodies / 256)
			ops = append(ops, kernel.Load(bodyArr+uint64(own*256*stride+w*32*stride), stride, 32, 16))
			for j := 0; j < tiles; j++ {
				// Interaction tile j, offset per row so X-adjacent CTAs
				// walk overlapping halves of the tile ring.
				t := (j + bx*tiles/2) % tiles
				ops = append(ops, kernel.Load(bodyArr+uint64(t*256*stride+w*32*stride), stride, 32, 16))
				ops = append(ops, kernel.Compute(20))
			}
			ops = append(ops, kernel.Store(outArr+uint64(l.CTA*4096+w*512), 16, 32, 16))
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// new3CV is 3DCONV (PolyBench-GPU): a 3x3x3 convolution whose halo
// planes and one-element skews straddle line boundaries shared with the
// neighbouring CTAs.
func new3CV() *App {
	const (
		gx, gy = 16, 16
		depth  = 4
		rowLen = 16*32 + 64
	)
	as := kernel.NewAddressSpace()
	vol := as.Alloc(rowLen * (gy + 2) * (depth + 2) * 4 * 8)
	out := as.Alloc(rowLen * gy * depth * 4 * 8)
	grid := kernel.Dim2(gx, gy)
	plane := rowLen * (gy + 2) * 4
	app := &App{
		name:      "3CV",
		longName:  "3DCONV (3D convolution)",
		grid:      grid,
		block:     kernel.Dim1(256),
		regs:      Regs{18, 9, 18, 19},
		smem:      0,
		cat:       locality.CacheLine,
		partition: kernel.RowMajor,
		optAgents: Regs{6, 8, 8, 8},
		refs: []kernel.ArrayRef{
			{Array: "volume", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX},
			{Array: "out", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		bx, by := l.CTA%gx, l.CTA/gx
		ws := l.WarpBufs(8)
		for w := range ws {
			z := w % depth
			ops := slices.Grow(ws[w], 8)
			base := vol + uint64(z*plane+(by+1)*rowLen*4+bx*128)
			// z-1, z, z+1 planes with -1/+1 column skews: the skewed
			// loads cross into the neighbour CTA's lines.
			ops = append(ops, kernel.Load(base-uint64(plane)-4, 4, 32, 4))
			ops = append(ops, kernel.Load(base-4, 4, 32, 4))
			ops = append(ops, kernel.Load(base+4, 4, 32, 4))
			ops = append(ops, kernel.Load(base+uint64(plane)+4, 4, 32, 4))
			ops = append(ops, kernel.Load(base-uint64(rowLen*4), 4, 32, 4))
			ops = append(ops, kernel.Load(base+uint64(rowLen*4), 4, 32, 4))
			ops = append(ops, kernel.Compute(16))
			ops = append(ops, kernel.Store(out+uint64(z*rowLen*gy*4+by*rowLen*4+bx*128+(w/depth)*64), 4, 16, 4))
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}
