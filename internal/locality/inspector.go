package locality

import (
	"sort"

	"ctacluster/internal/kernel"
)

// InspectorPermutation implements the extension the paper sketches for
// data-related applications (Section 3.2 and Section 6): a lightweight
// inspector pass profiles the kernel's access pattern before launch and
// derives a *customized* CTA order (the "Arbitrary" indexing of Figure
// 7) that places CTAs sharing cache lines next to each other, so the
// balanced chunking of CTA-Clustering keeps them on one SM.
//
// The inspector enumerates every CTA's read footprint at lineBytes
// granularity (like Quantify) and greedily chains CTAs by footprint
// overlap: starting from CTA 0, it repeatedly appends the unvisited CTA
// sharing the most lines with the tail of the chain, falling back to
// first-touch order when no candidate overlaps. The result is a
// permutation usable with core.AgentConfig{Indexing: kernel.Arbitrary,
// Perm: perm}.
//
// The cost is one trace enumeration — the software analogue of the
// "lightweight inspector kernel" of [38, 39] cited by the paper.
func InspectorPermutation(k kernel.Kernel, lineBytes int) []int {
	total := k.GridDim().Count()
	perm := make([]int, 0, total)
	if total <= 0 {
		return perm
	}

	// Footprints: per CTA, its distinct read lines.
	foot := make([]map[uint64]struct{}, total)
	// Inverted index: line -> CTAs touching it.
	byLine := make(map[uint64][]int32)
	for cta := 0; cta < total; cta++ {
		foot[cta] = readFootprint(k, cta, lineBytes)
		for a := range foot[cta] {
			byLine[a] = append(byLine[a], int32(cta))
		}
	}

	visited := make([]bool, total)
	overlapWith := func(cta int) map[int]int {
		counts := make(map[int]int)
		for a := range foot[cta] {
			sharers := byLine[a]
			if len(sharers) > 64 {
				// Ubiquitously shared lines (lookup tables) carry no
				// placement signal; skip them for tractability.
				continue
			}
			for _, o := range sharers {
				if int(o) != cta && !visited[o] {
					counts[int(o)]++
				}
			}
		}
		return counts
	}

	cur := 0
	visited[0] = true
	perm = append(perm, 0)
	next := 1
	for len(perm) < total {
		counts := overlapWith(cur)
		best, bestN := -1, 0
		// Deterministic tie-break: smallest CTA id among the best.
		keys := make([]int, 0, len(counts))
		for c := range counts {
			keys = append(keys, c)
		}
		sort.Ints(keys)
		for _, c := range keys {
			if counts[c] > bestN {
				best, bestN = c, counts[c]
			}
		}
		if best == -1 {
			for next < total && visited[next] {
				next++
			}
			if next >= total {
				break
			}
			best = next
		}
		visited[best] = true
		perm = append(perm, best)
		cur = best
	}
	return perm
}

// OverlapScore measures how much line sharing a CTA order preserves
// between adjacent positions: the summed footprint overlap of each
// consecutive pair. Higher is better; the inspector's permutation should
// score at least as high as the natural order for irregular kernels.
func OverlapScore(k kernel.Kernel, order []int, lineBytes int) int {
	score := 0
	if len(order) == 0 {
		return 0
	}
	prev := readFootprint(k, order[0], lineBytes)
	for i := 1; i < len(order); i++ {
		cur := readFootprint(k, order[i], lineBytes)
		for a := range cur {
			if _, ok := prev[a]; ok {
				score++
			}
		}
		prev = cur
	}
	return score
}

// readFootprint returns the distinct lineBytes-aligned lines CTA cta of
// k reads (lineBytes <= 0 means kernel.DefaultLineBytes).
func readFootprint(k kernel.Kernel, cta, lineBytes int) map[uint64]struct{} {
	set := make(map[uint64]struct{})
	kernel.EachLine(k.Work(kernel.Launch{CTA: cta}), lineBytes, nil, func(op *kernel.Op, lines []uint64) {
		if op.Kind != kernel.OpMem || op.Mem.Write {
			return
		}
		for _, a := range lines {
			set[a] = struct{}{}
		}
	})
	return set
}
