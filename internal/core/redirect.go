package core

import (
	"fmt"

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
// original kernel's row-major linear CTA id; g is walked as its
// (X, Y·Z) plane, so every CTA of a 3-D grid has a position.
func origCTA(ix kernel.Indexing, perm []int, v int, g kernel.Dim3) int {
	if ix == kernel.Arbitrary {
		return perm[v]
	}
	nx, ny := g.Plane()
	x, y := kernel.CoordOf(ix, v, nx, ny)
	return y*nx + x
}

// Redirect builds the redirection-based clustering transform of Section
// 4.2.4-(1) / Listing 4 of orig for a machine with sms SMs, clustering
// along the order defined by ix: the new kernel has exactly as many
// CTAs as the original, and CTA u runs original CTA v through the
// RR-based binding (Eq. 8) and the inverse partition function (Eq. 7).
// Its effectiveness depends on the GigaThread Engine actually
// dispatching round-robin, which real hardware does not guarantee.
// Arbitrary orders are served by agent clustering (AgentConfig.Perm).
func Redirect(orig kernel.Kernel, sms int, ix kernel.Indexing) (*kernel.Remapped, error) {
	if ix == kernel.Arbitrary {
		return nil, fmt.Errorf("core: redirection supports row-major, col-major and tile-wise indexing, not %v", ix)
	}
	g := orig.GridDim()
	part, err := NewPartition(g.Count(), sms)
	if err != nil {
		return nil, err
	}
	perm := make([]int, part.V)
	for u := range perm {
		perm[u] = origCTA(ix, nil, part.Invert(part.RRBind(u)), g)
	}
	return kernel.NewRemapped(orig, "+RD", indexCost(ix), perm)
}
