package core

import (
	"fmt"

	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
)

// Index-recomputation costs in SM cycles, charged per CTA (redirection)
// or per task (agents). Row-/column-major remapping is a handful of
// integer ops; tile-wise indexing requires the ragged-tile arithmetic the
// paper found expensive enough to erase MM's gains (Section 5.2-(6));
// arbitrary indexing is a lookup through a device table.
const (
	idxCostRowCol    = 4
	idxCostTileWise  = 360 // ragged-tile arithmetic: O(grid-tiles) div/mod walk
	idxCostArbitrary = 10
)

func indexCost(ix kernel.Indexing) int {
	switch ix {
	case kernel.TileWise:
		return idxCostTileWise
	case kernel.Arbitrary:
		return idxCostArbitrary
	default:
		return idxCostRowCol
	}
}

// origCTA maps position v of the chosen indexing order back to the
// original kernel's row-major linear CTA id.
func origCTA(ix kernel.Indexing, perm []int, v, nx, ny int) int {
	if ix == kernel.Arbitrary {
		return perm[v]
	}
	x, y := kernel.CoordOf(ix, v, nx, ny)
	return y*nx + x
}

// RedirectKernel is the redirection-based clustering transform of
// Section 4.2.4-(1) / Listing 4: the new kernel has exactly as many CTAs
// as the original; CTA u is redirected to original CTA v through the
// RR-based binding (Eq. 8) and the inverse partition function (Eq. 7).
// Its effectiveness depends on the GigaThread Engine actually
// dispatching round-robin, which real hardware does not guarantee.
type RedirectKernel struct {
	orig kernel.Kernel
	part Partition
	ix   kernel.Indexing
	perm []int
}

// Redirect builds the redirection transform of orig for a machine with
// sms SMs, clustering along the order defined by ix (perm is required
// for kernel.Arbitrary and ignored otherwise).
func Redirect(orig kernel.Kernel, sms int, ix kernel.Indexing, perm []int) (*RedirectKernel, error) {
	total := orig.GridDim().Count()
	part, err := NewPartition(total, sms)
	if err != nil {
		return nil, err
	}
	if ix == kernel.Arbitrary {
		if len(perm) != total {
			return nil, fmt.Errorf("core: arbitrary indexing needs a permutation of length %d, got %d", total, len(perm))
		}
	}
	return &RedirectKernel{orig: orig, part: part, ix: ix, perm: perm}, nil
}

// Name labels the transformed kernel.
func (k *RedirectKernel) Name() string { return k.orig.Name() + "+RD" }

// GridDim matches the original (|N| = |O|).
func (k *RedirectKernel) GridDim() kernel.Dim3 { return k.orig.GridDim() }

// BlockDim matches the original.
func (k *RedirectKernel) BlockDim() kernel.Dim3 { return k.orig.BlockDim() }

// WarpsPerCTA matches the original.
func (k *RedirectKernel) WarpsPerCTA() int { return k.orig.WarpsPerCTA() }

// RegsPerThread matches the original (the macro adds two int registers,
// below the allocation granularity).
func (k *RedirectKernel) RegsPerThread(g arch.Generation) int { return k.orig.RegsPerThread(g) }

// SharedMemPerCTA matches the original.
func (k *RedirectKernel) SharedMemPerCTA() int { return k.orig.SharedMemPerCTA() }

// ArrayRefs exposes the original kernel's reference structure.
func (k *RedirectKernel) ArrayRefs() []kernel.ArrayRef {
	if rd, ok := k.orig.(kernel.RefDescriber); ok {
		return rd.ArrayRefs()
	}
	return nil
}

// Target returns the original CTA id that new-kernel CTA u executes
// (exported for the property tests and the framework's probe).
func (k *RedirectKernel) Target(u int) int {
	w, i := k.part.RRBind(u)
	v := k.part.Invert(w, i)
	g := k.orig.GridDim()
	return origCTA(k.ix, k.perm, v, g.X, g.Y)
}

// Work redirects CTA u to its target and charges the remapping cost.
func (k *RedirectKernel) Work(l kernel.Launch) kernel.CTAWork {
	l.CTA = k.Target(l.CTA)
	return kernel.WorkAfter(k.orig, l, kernel.Compute(indexCost(k.ix)))
}
