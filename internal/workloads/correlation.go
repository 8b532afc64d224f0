package workloads

import (
	"slices"

	"ctacluster/internal/kernel"
	"ctacluster/internal/locality"
)

// COR (correlation, PolyBench), promoted from the Figure-3-only set to
// a full Table 2 characterization. The correlation-matrix kernel
// symmat[j1][j2] = Σ_i data[i][j1]·data[i][j2] / (std[j1]·std[j2]) has
// the rank-K access skeleton — a 2D grid where every CTA row re-reads
// the j1 column panel and every CTA column the j2 panel — plus a
// normalization phase that re-reads the per-column mean/stddev vectors
// computed by the preceding reduce kernels. The 72-float row pitch
// keeps the panel loads misaligned against 128B lines, so the shared
// data arrives via partially-consumed lines: cache-line-related
// inter-CTA locality, like SYK/S2K.

func init() {
	register("COR", newCOR)
}

func newCOR() *App {
	const (
		gx, gy = 16, 16
		pitch  = 72 // floats per row: 288B, misaligned against 128B lines
		kIters = 8
	)
	as := kernel.NewAddressSpace()
	dataA := as.Alloc((gx + gy) * 32 * pitch * 4)
	stats := as.Alloc((gx + gy) * 32 * 2 * 4) // mean and stddev per column
	symmat := as.Alloc(gx * gy * 32 * 32 * 4)
	app := &App{
		name:      "COR",
		longName:  "correlation (PolyBench correlation matrix)",
		grid:      kernel.Dim2(gx, gy),
		block:     kernel.Dim1(256),
		regs:      Regs{20, 24, 22, 25},
		smem:      0,
		cat:       locality.CacheLine,
		partition: kernel.ColMajor,
		optAgents: Regs{2, 2, 8, 8},
		refs: []kernel.ArrayRef{
			{Array: "Aj", DependsBX: true},
			{Array: "Ai", DependsBY: true},
			{Array: "symmat", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX, Write: true},
		},
	}
	app.gen = func(l kernel.Launch) kernel.CTAWork {
		bx, by := l.CTA%gx, l.CTA/gx
		ws := l.WarpBufs(8)
		for w := range ws {
			ops := slices.Grow(ws[w], kIters*3+4)
			for k := 0; k < kIters; k++ {
				// data[·][j1-block]: shared by the whole grid column (same bx).
				ops = append(ops, kernel.Load(dataA+uint64(((bx*32+w*4)*pitch+k*32)*4), 4, 32, 4))
				// data[·][j2-block]: shared by the whole grid row (same by).
				ops = append(ops, kernel.Load(dataA+uint64(((gx*32+by*32+w*4)*pitch+k*32)*4), 4, 32, 4))
				ops = append(ops, kernel.Compute(12))
			}
			// Normalization: mean/stddev for the j1 and j2 column blocks —
			// small vectors every CTA sharing the block re-reads.
			ops = append(ops, kernel.Load(stats+uint64(bx*32*2*4), 4, 32, 8))
			ops = append(ops, kernel.Load(stats+uint64((gx+by)*32*2*4), 4, 32, 8))
			ops = append(ops, kernel.Compute(8))
			ops = append(ops, kernel.Store(symmat+uint64((l.CTA*1024+w*128)*4), 4, 32, 4))
			ws[w] = ops
		}
		return kernel.CTAWork{Warps: ws}
	}
	return app
}
