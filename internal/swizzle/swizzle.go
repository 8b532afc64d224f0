// Package swizzle implements CTA tile swizzling, a third transform
// family alongside internal/core's redirection- and agent-based
// clustering. Where the paper's transforms (Section 4.2) regroup CTAs
// for intra-SM L1 reuse, a swizzle remaps the CTA→tile rasterization
// order so that *concurrently resident* CTAs — the ones occupying the
// whole GPU during the same dispatch window — touch overlapping L2
// lines. This is the CUTLASS threadblock-swizzle technique (GROUP_M
// grouped rasterization, XOR bit-twiddles, space-filling curves); the
// paper never evaluated it, which makes the clustering-vs-swizzling
// comparison in internal/eval new science on existing infrastructure.
//
// Every variant is a pure CTA-index remap: a bijection perm over the
// grid's linear CTA ids, applied by kernel.Remapped, the transform that
// also carries internal/core's redirection. Conservation therefore
// holds by construction — the transformed kernel executes exactly the
// original work multiset — and is proven by the package's conservation
// and bijectivity-fuzz tests.
//
// The package also hosts the L2 inter-CTA reuse analyzer (analyzer.go),
// the post-coalescing sibling of internal/locality's pre-L1
// quantification: it slides an occupancy-derived co-residency window
// over the dispatch order and counts cross-CTA L2 line sharing, which
// is the quantity a good swizzle maximizes.
package swizzle

import (
	"fmt"
	"sort"
	"strings"

	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
)

// Per-CTA index-recomputation costs in SM cycles, charged like
// internal/core's indexCost: the swizzled kernel recomputes its tile
// coordinate from blockIdx at entry. The identity variant is free (it
// is the compiler's own row-major rasterization); XOR is a couple of
// integer ops; the grouped-column swizzle needs a div/mod pair; the
// Hilbert curve runs a short iterative bit loop per level.
const (
	costIdentity = 0
	costXOR      = 4
	costGroupCol = 8
	costHilbert  = 24
	// The die-block remap is a div/mod pair plus a band lookup, the
	// same order of arithmetic as the grouped-column swizzle.
	costDieBlock = 8
)

// Identity is the name of the unswizzled (row-major) baseline variant:
// the analyzer's tie-winning incumbent and the name a no-swizzle cell
// reports where a variant name is expected.
const Identity = "identity"

// GroupM is the grouped-column swizzle's group height in tiles, the
// CUTLASS GemmIdentityThreadblockSwizzle "GROUP_M" parameter. Eight
// rows per group keeps a group's working set within one L2 slice on
// every Table 1 platform.
const GroupM = 8

// variant describes one registered swizzle: its remap cost and the
// permutation builder over an nx × ny CTA grid. A nil build means the
// identity (row-major) order. A die-aware variant's permutation also
// depends on the platform — the placement family for chiplet GPUs
// (arXiv 2606.11716) — so it needs one, and build reads it.
type variant struct {
	cost     int
	dieAware bool
	build    func(nx, ny int, ar *arch.Arch) []int
}

var variants = map[string]variant{
	Identity:   {cost: costIdentity},
	"xor":      {cost: costXOR, build: gridOnly(xorPerm)},
	"groupcol": {cost: costGroupCol, build: gridOnly(groupColPerm)},
	"hilbert":  {cost: costHilbert, build: gridOnly(hilbertPerm)},
	"dieblock": {cost: costDieBlock, dieAware: true, build: dieBlockPerm},
}

// gridOnly adapts a permutation builder that needs only the grid.
func gridOnly(build func(nx, ny int) []int) func(int, int, *arch.Arch) []int {
	return func(nx, ny int, _ *arch.Arch) []int { return build(nx, ny) }
}

// Names returns the architecture-independent swizzle names, sorted —
// the family the BENCH_swizzle.json matrix and the reuse analyzer rank
// over. Die-aware swizzles are excluded on purpose: their permutation
// is a function of the platform, so they only make sense where an
// architecture is in hand (AllNames has the full list).
func Names() []string {
	out := make([]string, 0, len(variants))
	for n, v := range variants {
		if !v.dieAware {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// AllNames returns every registered swizzle name, architecture-aware
// ones included, sorted. This is the list user-facing flag validation
// (internal/cli) and the ctad /transforms endpoint advertise.
func AllNames() []string {
	out := make([]string, 0, len(variants))
	for n := range variants {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WrapFor builds the named swizzle of orig for platform ar: orig with
// its CTA ids remapped, named orig's name plus "+SWZ(name)". The grid,
// block and resource footprint are unchanged; only the dispatch-order →
// tile mapping moves. The name is matched case-insensitively against
// AllNames(); an unknown name yields an error listing the known
// swizzles in sorted order, matching internal/cli's unknown-app/-arch
// style. The Names() family ignores ar, which may be nil. Die-aware
// swizzles (dieblock) require a non-nil ar; on a monolithic descriptor
// they degenerate to the identity remap at zero cost — there is only
// one die to keep CTAs on, and the degenerate case keeps `-swizzle
// dieblock` harmless rather than erroneous when `-chiplet` is off.
// Grids with Z > 1 are swizzled on their (X, Y·Z) plane, which
// preserves the linear CTA id layout.
func WrapFor(name string, orig kernel.Kernel, ar *arch.Arch) (*kernel.Remapped, error) {
	canon := strings.ToLower(strings.TrimSpace(name))
	v, ok := variants[canon]
	if !ok {
		return nil, fmt.Errorf("swizzle: unknown swizzle %q (known: %s)", name, strings.Join(AllNames(), ", "))
	}
	if v.dieAware {
		if ar == nil {
			return nil, fmt.Errorf("swizzle: %q is architecture-aware and needs a platform", canon)
		}
		if ar.Chiplets <= 1 {
			v = variant{} // one die: the identity at zero cost
		}
	}
	var perm []int
	if v.build != nil {
		nx, ny := orig.GridDim().Plane()
		perm = v.build(nx, ny, ar)
	}
	return kernel.NewRemapped(orig, "+SWZ("+canon+")", v.cost, perm)
}

// xorPerm is the bit-twiddle swizzle: within each row, tile x is
// relocated to x XOR (y & (p-1)) where p is the largest power of two
// not exceeding nx. XORing a row-dependent pattern into the column
// spreads vertically adjacent tiles across column groups, so a
// co-residency window covering several rows touches clustered columns.
// Columns >= p (the non-power-of-two remainder) stay in place, which
// keeps the map bijective on any grid width.
func xorPerm(nx, ny int) []int {
	p := 1
	for p*2 <= nx {
		p *= 2
	}
	mask := p - 1
	perm := make([]int, 0, nx*ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			xx := x
			if x < p {
				xx = x ^ (y & mask)
			}
			perm = append(perm, y*nx+xx)
		}
	}
	return perm
}

// groupColPerm is the CUTLASS-style grouped-column rasterization: the
// grid is cut into horizontal groups of GroupM rows and each group is
// walked column-major. Consecutive dispatch slots then share a tile
// column (B reuse in GEMM terms) while staying within GroupM rows of
// A, instead of streaming across a full row. The last partial group is
// walked the same way, so any ny is bijective.
func groupColPerm(nx, ny int) []int {
	perm := make([]int, 0, nx*ny)
	for g0 := 0; g0 < ny; g0 += GroupM {
		rows := GroupM
		if g0+rows > ny {
			rows = ny - g0
		}
		for x := 0; x < nx; x++ {
			for yi := 0; yi < rows; yi++ {
				perm = append(perm, (g0+yi)*nx+x)
			}
		}
	}
	return perm
}

// hilbertPerm walks the grid along a Hilbert space-filling curve on the
// smallest power-of-two square covering it, skipping points outside the
// grid. Successive dispatch slots are always spatially adjacent tiles,
// which maximizes the 2D footprint overlap of any co-residency window
// at the price of the most index arithmetic.
func hilbertPerm(nx, ny int) []int {
	n := 1
	for n < nx || n < ny {
		n <<= 1
	}
	perm := make([]int, 0, nx*ny)
	for d := 0; d < n*n; d++ {
		x, y := hilbertD2XY(n, d)
		if x < nx && y < ny {
			perm = append(perm, y*nx+x)
		}
	}
	return perm
}

// dieBlockPerm is the die-aware placement remap for chiplet GPUs: the
// grid is cut into horizontal bands, one per die, with heights
// proportional to each die's SM share, and dispatch slot u — which the
// GigaThread engine's first turnaround places on SM u mod SMs (the
// round-robin pattern of Section 3.1-(3)) — draws its tile row-major
// from the band of that SM's die. Neighbouring tiles, and therefore
// the cluster-mates internal/core groups out of them, land on one die:
// their shared lines are fetched into a single die's L2 slice instead
// of being duplicated per die, which is the capacity effect the
// chiplet comparison in internal/eval measures. When a die's band runs
// dry (demand-driven later turnarounds drift off u mod SMs) the slot
// takes the next tile from the following die's band, round-robin,
// which keeps the map bijective on any grid and die count.
func dieBlockPerm(nx, ny int, ar *arch.Arch) []int {
	dies := ar.Chiplets
	// Band boundaries: band d covers rows [bounds[d], bounds[d+1]),
	// sized by the die's share of SMs; telescoping makes the last
	// boundary exactly ny, so the bands tile the grid.
	bounds := make([]int, dies+1)
	smSum := 0
	for d := 0; d < dies; d++ {
		smSum += ar.DieSMs(d)
		bounds[d+1] = ny * smSum / ar.SMs
	}
	next := make([]int, dies) // per-band row-major cursor
	take := func(d int) (int, bool) {
		lo, hi := bounds[d], bounds[d+1]
		i := next[d]
		if i >= (hi-lo)*nx {
			return 0, false
		}
		next[d]++
		return (lo+i/nx)*nx + i%nx, true
	}
	perm := make([]int, 0, nx*ny)
	for u := 0; u < nx*ny; u++ {
		d := ar.DieOf(u % ar.SMs)
		tile, ok := take(d)
		for k := 1; !ok && k < dies; k++ {
			tile, ok = take((d + k) % dies)
		}
		if !ok {
			panic("swizzle: internal error: dieblock ran out of tiles before slots")
		}
		perm = append(perm, tile)
	}
	return perm
}

// hilbertD2XY converts a distance d along the Hilbert curve of order-n
// (n a power of two) to its (x, y) cell, by the standard
// quadrant-rotation recurrence unrolled into a loop.
func hilbertD2XY(n, d int) (int, int) {
	x, y := 0, 0
	t := d
	for s := 1; s < n; s *= 2 {
		rx := 1 & (t / 2)
		ry := 1 & (t ^ rx)
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}
