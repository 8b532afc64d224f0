package locality

import "ctacluster/internal/kernel"

// Category is a source of inter-CTA locality (Section 3.2, Figure 4).
type Category int

const (
	// Uncategorized means the framework has not decided yet.
	Uncategorized Category = iota
	// Algorithm: reuse inherent in the algorithm design (MM, KMN, DCT).
	Algorithm
	// CacheLine: reuse introduced by long L1 cache lines (SYK, NBO, ATX).
	CacheLine
	// Data: reuse from irregular data organisation (BFS, HST, BTR).
	Data
	// Write: reuse destroyed by write-evict on overlapping R/W (NW).
	Write
	// Streaming: coalesced, aligned, used-once accesses (BS, SAD, DXT).
	Streaming
)

// String returns the category name used in Table 2.
func (c Category) String() string {
	switch c {
	case Algorithm:
		return "algorithm"
	case CacheLine:
		return "cache-line"
	case Data:
		return "data"
	case Write:
		return "write"
	case Streaming:
		return "streaming"
	default:
		return "uncategorized"
	}
}

// Exploitable reports whether the category's inter-CTA locality can be
// identified before runtime and harvested by clustering (Section 4.1):
// algorithm-related (program defined) and cache-line related
// (architecture defined) qualify; data, write and streaming do not.
func (c Category) Exploitable() bool {
	return c == Algorithm || c == CacheLine
}

// PartitionDirection derives the clustering direction from the kernel's
// array reference structure, the dependence analysis of Section
// 4.2.1-(A):
//
//   - 1D grids are X-partitioned (the paper labels 1D chunking X-P).
//   - A read reference depending only on blockIdx.y (MM's matrix A) is
//     fully shared by CTAs that differ in X: locality across X, so
//     partition along Y (row-major indexing) to keep those CTAs on one
//     SM. Likewise a bx-fastest mixed reference shares cache lines
//     across X-adjacent CTAs.
//   - A reference depending only on blockIdx.x (MM's matrix B), or a
//     by-fastest mixed reference, gives locality across Y: partition
//     along X (column-major indexing).
//   - With no decisive reference, default to row-major / Y-partitioning
//     (row-major storage puts cache-line locality between row-adjacent
//     CTAs, Section 4.2.1-B).
//
// Kernels order refs by directional locality intensity; the first
// decisive read reference wins. The returned indexing is the CTA order
// whose balanced chunking implements the partition (Figure 7).
func PartitionDirection(grid kernel.Dim3, refs []kernel.ArrayRef) kernel.Indexing {
	if grid.Y <= 1 && grid.Z <= 1 {
		return kernel.ColMajor // X-partitioning
	}
	for _, r := range refs {
		if r.Write {
			continue
		}
		switch {
		case r.DependsBY && !r.DependsBX:
			return kernel.RowMajor // across-X locality => Y-partition
		case r.DependsBX && !r.DependsBY:
			return kernel.ColMajor // across-Y locality => X-partition
		case r.DependsBX && r.DependsBY && r.Fastest == kernel.CoordBX:
			return kernel.RowMajor // cache-line sharing across X
		case r.DependsBX && r.DependsBY && r.Fastest == kernel.CoordBY:
			return kernel.ColMajor
		}
	}
	return kernel.RowMajor
}

// DirectionLabel renders an indexing as the Table 2 partition label.
func DirectionLabel(ix kernel.Indexing) string {
	switch ix {
	case kernel.RowMajor:
		return "Y-P"
	case kernel.ColMajor:
		return "X-P"
	case kernel.TileWise:
		return "XY-P"
	default:
		return "custom"
	}
}
