package workloads

import (
	"slices"

	"ctacluster/internal/kernel"
	"ctacluster/internal/locality"
)

// The eight algorithm-related applications of Table 2. Their inter-CTA
// locality is inherent in the algorithm: data that threads from
// different CTAs consume more than once (Figure 4-A).

func init() {
	register("MM", newMM)
	register("KMN", newKMN)
	register("NN", newNN)
	register("IMD", newIMD)
	register("BKP", newBKP)
	register("DCT", newDCT)
	register("SGM", newSGM)
	register("HS", newHS)
}

// newMM is matrixMul from the CUDA SDK: shared-memory tiled C = A x B.
// Intra-CTA reuse is fully handled by shared memory; the inter-CTA reuse
// is the A tile row shared by all CTAs with the same blockIdx.y (region
// S in Figure 8-A) and the B tile column shared by CTAs with the same
// blockIdx.x (region T).
func newMM() *App {
	const (
		n    = 384
		tile = 32
	)
	as := kernel.NewAddressSpace()
	aBase := as.Alloc(n * n * 4)
	bBase := as.Alloc(n * n * 4)
	cBase := as.Alloc(n * n * 4)
	grid := kernel.Dim2(n/tile, n/tile)
	app := &App{
		name:      "MM",
		longName:  "matrixMul (dense matrix multiplication)",
		grid:      grid,
		block:     kernel.Dim2(tile, tile),
		regs:      Regs{22, 29, 32, 27},
		smem:      8192,
		cat:       locality.Algorithm,
		partition: kernel.RowMajor, // Y-P: target the row-based locality in A
		optAgents: Regs{1, 2, 2, 2},
		refs: []kernel.ArrayRef{
			{Array: "A", DependsBY: true},
			{Array: "B", DependsBX: true},
			{Array: "C", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		bx, by := l.CTA%grid.X, l.CTA/grid.X
		warps := l.WarpBufs(tile)
		for ty := range warps {
			ops := slices.Grow(warps[ty], 5*n/tile+1)
			for k := 0; k < n/tile; k++ {
				// As[ty][tx] = A[by*tile+ty][k*tile+tx]
				ops = append(ops, kernel.Load(aBase+uint64(((by*tile+ty)*n+k*tile)*4), 4, tile, 4))
				// Bs[ty][tx] = B[k*tile+ty][bx*tile+tx]
				ops = append(ops, kernel.Load(bBase+uint64(((k*tile+ty)*n+bx*tile)*4), 4, tile, 4))
				ops = append(ops, kernel.Barrier())
				ops = append(ops, kernel.Compute(2*tile)) // smem MAC loop
				ops = append(ops, kernel.Barrier())
			}
			ops = append(ops, kernel.Store(cBase+uint64(((by*tile+ty)*n+bx*tile)*4), 4, tile, 4))
			warps[ty] = ops
		}
		return kernel.CTAWork{Warps: warps}
	}
	return app
}

// newKMN is kmeans (Rodinia): every thread classifies one point against
// the full centroid table, which every CTA re-reads — strong inter-CTA
// reuse on the centroids, streaming AoS traffic on the points. The point
// stream thrashes the small L1, which is why Table 2 throttles it to one
// agent per SM on every architecture.
func newKMN() *App {
	const (
		ctas      = 240
		warps     = 8
		features  = 8
		nclusters = 16
		centBytes = 256 // one centroid record: 64 features x 4B
	)
	as := kernel.NewAddressSpace()
	points := as.Alloc(ctas * warps * 32 * features * 4)
	cents := as.Alloc(nclusters * centBytes)
	member := as.Alloc(ctas * warps * 32 * 4)
	app := &App{
		name:      "KMN",
		longName:  "kmeans (clustering)",
		grid:      kernel.Dim1(ctas),
		block:     kernel.Dim1(warps * 32),
		regs:      Regs{14, 17, 16, 18},
		smem:      0,
		cat:       locality.Algorithm,
		partition: kernel.ColMajor, // X-P (1D grid)
		optAgents: Regs{1, 1, 1, 1},
		refs: []kernel.ArrayRef{
			{Array: "centroids"},
			{Array: "points", DependsBX: true, Fastest: kernel.CoordBX},
			{Array: "membership", DependsBX: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		ws := l.WarpBufs(warps)
		for w := range ws {
			gwarp := l.CTA*warps + w
			pbase := points + uint64(gwarp*32*features*4)
			ops := slices.Grow(ws[w], nclusters*3+nclusters/4+1)
			// Rodinia kmeans re-reads each point's features from global
			// memory on every centroid iteration: the warp's 1KB point
			// block is the hot set a CTA needs resident. One CTA's
			// blocks fit L1; a full complement of CTAs thrashes it —
			// which is why Table 2 throttles KMN to one agent per SM.
			for c := 0; c < nclusters; c++ {
				ops = append(ops, kernel.Load(cents+uint64(c*centBytes), 8, 32, 8))
				ops = append(ops, kernel.Load(pbase, features*4, 32, 4))
				ops = append(ops, kernel.Load(pbase+uint64(features*2), features*4, 32, 4))
				if c%4 == 3 {
					ops = append(ops, kernel.Compute(8))
				}
			}
			ops = append(ops, kernel.Store(member+uint64(gwarp*32*4), 4, 32, 4))
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// newNN is the convolutional neural-network forward pass (GPGPU-Sim
// benchmark): single-warp CTAs convolve overlapping input windows with a
// weight set shared by every CTA.
func newNN() *App {
	const (
		gx, gy    = 32, 32
		width     = 32*4 + 8 // input row floats
		wloads    = 16
		bankBytes = 4096 // per-row filter bank (shared by one grid row)
	)
	as := kernel.NewAddressSpace()
	input := as.Alloc(width * (gy*4 + 8) * 4)
	weights := as.Alloc(gy * bankBytes)
	out := as.Alloc(gx * gy * 32 * 4)
	grid := kernel.Dim2(gx, gy)
	app := &App{
		name:      "NN",
		longName:  "nn (convolutional neural network)",
		grid:      grid,
		block:     kernel.Dim1(32),
		regs:      Regs{21, 35, 37, 32},
		smem:      0,
		cat:       locality.Algorithm,
		partition: kernel.RowMajor,
		optAgents: Regs{8, 16, 32, 32},
		refs: []kernel.ArrayRef{
			{Array: "input", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX},
			{Array: "weights"},
			{Array: "out", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		bx, by := l.CTA%gx, l.CTA/gx
		ws := l.WarpBufs(1)
		for w := range ws {
			ops := slices.Grow(ws[w], 8+wloads+wloads/4+1)
			// 8x8 input window with stride 4: half of it is shared with
			// the X-neighbour CTA.
			for r := 0; r < 8; r++ {
				ops = append(ops, kernel.Load(input+uint64(((by*4+r)*width+bx*4)*4), 4, 8, 4))
			}
			// The row's filter bank: 16 of its 32 lines per CTA, phased
			// by bx so the whole 4KB bank is live on the serving SM.
			for j := 0; j < wloads; j++ {
				off := ((j*2 + bx) % 32) * 128
				ops = append(ops, kernel.Load(weights+uint64(by*bankBytes+off), 4, 32, 4))
				if j%4 == 3 {
					ops = append(ops, kernel.Compute(8))
				}
			}
			ops = append(ops, kernel.Store(out+uint64(l.CTA*32*4), 4, 32, 4))
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// newIMD is imageDenoising (CUDA SDK NLM): each CTA filters a pixel tile
// using a search window that overlaps heavily with its X-neighbours.
func newIMD() *App {
	const (
		gx, gy = 24, 24
		rowLen = 24*64 + 64
	)
	as := kernel.NewAddressSpace()
	img := as.Alloc(rowLen * (gy*8 + 8) * 4)
	out := as.Alloc(gx * gy * 64 * 4)
	grid := kernel.Dim2(gx, gy)
	app := &App{
		name:      "IMD",
		longName:  "imageDenoising (NLM filter)",
		grid:      grid,
		block:     kernel.Dim1(64),
		regs:      Regs{63, 61, 49, 55},
		smem:      0,
		cat:       locality.Algorithm,
		partition: kernel.RowMajor,
		optAgents: Regs{8, 16, 14, 16},
		refs: []kernel.ArrayRef{
			{Array: "image", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX},
			{Array: "out", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		bx, by := l.CTA%gx, l.CTA/gx
		ws := l.WarpBufs(2)
		for w := range ws {
			ops := slices.Grow(ws[w], 8*2+8/2+2)
			// NLM search window rows: each warp reads its 128B row
			// segment plus a 64B apron reaching into the X-neighbour's
			// tile — the search windows of adjacent tiles overlap.
			for r := 0; r < 8; r++ {
				base := img + uint64(((by*8+r)*rowLen+bx*64+w*32)*4)
				ops = append(ops, kernel.Load(base-32, 4, 32, 4))
				ops = append(ops, kernel.Load(base+96, 4, 16, 4))
				if r%2 == 1 {
					ops = append(ops, kernel.Compute(12))
				}
			}
			ops = append(ops, kernel.Compute(20))
			ops = append(ops, kernel.Store(out+uint64((l.CTA*64+w*32)*4), 4, 32, 4))
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// newBKP is backprop (Rodinia): the forward layer re-reads the shared
// input-unit vector in every CTA while streaming its private slice of
// the weight matrix.
func newBKP() *App {
	const (
		ctas  = 192
		warps = 8
	)
	as := kernel.NewAddressSpace()
	inputv := as.Alloc(64 * 4)
	weightm := as.Alloc(ctas * warps * 32 * 16 * 4)
	hidden := as.Alloc(ctas * warps * 32 * 4)
	app := &App{
		name:      "BKP",
		longName:  "backprop (perceptron back propagation)",
		grid:      kernel.Dim1(ctas),
		block:     kernel.Dim1(warps * 32),
		regs:      Regs{11, 11, 16, 18},
		smem:      1092,
		cat:       locality.Algorithm,
		partition: kernel.ColMajor,
		optAgents: Regs{6, 8, 8, 8},
		refs: []kernel.ArrayRef{
			{Array: "input"},
			{Array: "weights", DependsBX: true, Fastest: kernel.CoordBX},
			{Array: "hidden", DependsBX: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		ws := l.WarpBufs(warps)
		for w := range ws {
			gwarp := l.CTA*warps + w
			ops := slices.Grow(ws[w], 2+8+8/4+3)
			// Shared input vector (two 128B lines).
			ops = append(ops, kernel.Load(inputv, 4, 32, 4))
			ops = append(ops, kernel.Load(inputv+128, 4, 32, 4))
			// Private weight rows, streaming.
			for j := 0; j < 8; j++ {
				ops = append(ops, kernel.Load(weightm+uint64((gwarp*32*16+j*64)*4), 4, 32, 4).StreamingHint())
				if j%4 == 3 {
					ops = append(ops, kernel.Compute(6))
				}
			}
			ops = append(ops, kernel.Barrier()) // smem reduction
			ops = append(ops, kernel.Compute(8))
			ops = append(ops, kernel.Store(hidden+uint64(gwarp*32*4), 4, 32, 4))
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// newDCT is dct8x8 (CUDA SDK): every CTA transforms one 8x8 pixel block
// against the globally shared cosine coefficient table. The image tiles
// are 32B wide, so on the 128B-line architectures four X-adjacent CTAs
// also share each line.
func newDCT() *App {
	const (
		gx, gy = 32, 32
		width  = 32 * 8
	)
	as := kernel.NewAddressSpace()
	img := as.Alloc(width * gy * 8 * 4)
	coef := as.Alloc(512)
	out := as.Alloc(width * gy * 8 * 4)
	grid := kernel.Dim2(gx, gy)
	app := &App{
		name:      "DCT",
		longName:  "dct8x8 (discrete cosine transform)",
		grid:      grid,
		block:     kernel.Dim2(8, 8),
		regs:      Regs{14, 17, 22, 19},
		smem:      512,
		cat:       locality.Algorithm,
		partition: kernel.ColMajor, // X-P per Table 2 (column-scan plan)
		optAgents: Regs{8, 16, 32, 24},
		refs: []kernel.ArrayRef{
			{Array: "coef"},
			{Array: "image", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBY},
			{Array: "out", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBY, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		bx, by := l.CTA%gx, l.CTA/gx
		ws := l.WarpBufs(2)
		for w := range ws {
			ops := slices.Grow(ws[w], 4+4+3+4)
			for r := 0; r < 4; r++ {
				row := by*8 + w*4 + r
				ops = append(ops, kernel.Load(img+uint64((row*width+bx*8)*4), 4, 8, 4))
			}
			// Coefficient table, shared by every CTA.
			for j := 0; j < 4; j++ {
				ops = append(ops, kernel.Load(coef+uint64(j*128), 4, 32, 4))
			}
			ops = append(ops, kernel.Barrier())
			ops = append(ops, kernel.Compute(24))
			ops = append(ops, kernel.Barrier())
			for r := 0; r < 4; r++ {
				row := by*8 + w*4 + r
				ops = append(ops, kernel.Store(out+uint64((row*width+bx*8)*4), 4, 8, 4))
			}
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// newSGM is sgemm (Parboil): a register-tiled GEMM whose dominant reuse
// is the B panel shared by CTAs with the same blockIdx.x — column-based
// locality, hence X-partitioning (the dual of MM).
func newSGM() *App {
	const (
		gx, gy = 24, 8 // B.width > A.height: X-partition targets B (Fig. 8)
		tile   = 32
		kTiles = 8
		n      = gx * tile
	)
	as := kernel.NewAddressSpace()
	aBase := as.Alloc(gy * tile * n * 4)
	bBase := as.Alloc(n * n * 4)
	cBase := as.Alloc(gy * tile * n * 4)
	grid := kernel.Dim2(gx, gy)
	app := &App{
		name:      "SGM",
		longName:  "sgemm (dense matrix-matrix multiplication)",
		grid:      grid,
		block:     kernel.Dim1(128),
		regs:      Regs{33, 53, 41, 46},
		smem:      512,
		cat:       locality.Algorithm,
		partition: kernel.ColMajor,
		optAgents: Regs{7, 9, 8, 8},
		refs: []kernel.ArrayRef{
			{Array: "B", DependsBX: true},
			{Array: "A", DependsBY: true},
			{Array: "C", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		bx, by := l.CTA%gx, l.CTA/gx
		ws := l.WarpBufs(4)
		for w := range ws {
			ops := slices.Grow(ws[w], kTiles*4+1)
			for k := 0; k < kTiles; k++ {
				// A panel rows (row-based reuse, same by).
				ops = append(ops, kernel.Load(aBase+uint64(((by*tile+w*8)*n+k*tile)*4), 4, 32, 4))
				// B panel rows (column-based reuse, same bx) — dominant.
				ops = append(ops, kernel.Load(bBase+uint64(((k*tile+w*8)*n+bx*tile)*4), 4, 32, 4))
				ops = append(ops, kernel.Compute(16))
				ops = append(ops, kernel.Barrier())
			}
			ops = append(ops, kernel.Store(cBase+uint64(((by*tile+w*8)*n+bx*tile)*4), 4, 32, 4))
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}

// newHS is hotspot (Rodinia): an iterative 2D thermal stencil; tiles
// exchange halo rows/columns with their grid neighbours, and the power
// map is streamed.
func newHS() *App {
	const (
		gx, gy = 24, 24
		side   = 16 // tile edge in floats... row segment of 64 floats per tile row
		rowLen = gx*64 + 64
	)
	as := kernel.NewAddressSpace()
	temp := as.Alloc(rowLen * (gy*8 + 8) * 4)
	power := as.Alloc(rowLen * (gy*8 + 8) * 4)
	out := as.Alloc(rowLen * (gy*8 + 8) * 4)
	grid := kernel.Dim2(gx, gy)
	app := &App{
		name:      "HS",
		longName:  "hotspot (thermal simulation stencil)",
		grid:      grid,
		block:     kernel.Dim1(256),
		regs:      Regs{35, 38, 36, 38},
		smem:      3072,
		cat:       locality.Algorithm,
		partition: kernel.RowMajor,
		optAgents: Regs{3, 5, 6, 6},
		refs: []kernel.ArrayRef{
			{Array: "temp", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX},
			{Array: "power", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX},
			{Array: "out", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		bx, by := l.CTA%gx, l.CTA/gx
		ws := l.WarpBufs(8)
		for w := range ws {
			row := by*8 + w
			base := uint64((row*rowLen + bx*64) * 4)
			ops := slices.Grow(ws[w], 8)
			// Row above, own row (with one-column halo skew), row below.
			ops = append(ops, kernel.Load(temp+base-uint64(rowLen*4), 8, 32, 4))
			ops = append(ops, kernel.Load(temp+base-4, 8, 32, 4))
			ops = append(ops, kernel.Load(temp+base+uint64(rowLen*4), 8, 32, 4))
			ops = append(ops, kernel.Load(power+base, 8, 32, 4).StreamingHint())
			ops = append(ops, kernel.Barrier())
			ops = append(ops, kernel.Compute(18))
			ops = append(ops, kernel.Barrier())
			ops = append(ops, kernel.Store(out+base, 8, 32, 4))
			ws[w] = ops
		}
		_ = side
		return kernel.CTAWork{Warps: ws}
	}
	return app
}
