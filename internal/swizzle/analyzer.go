package swizzle

// The L2 inter-CTA reuse analyzer: the post-coalescing sibling of
// internal/locality's pre-L1 quantification. locality.Quantify asks
// "which CTAs touch the same line at all?" — the clustering question,
// answered before any placement. This analyzer asks the swizzling
// question: of the CTAs that are *co-resident* (occupying the GPU
// during the same dispatch window, the window width derived from
// occupancy), how many L2-line fetches are shared between them? A
// swizzle cannot change what a CTA touches, only *when* it is resident
// relative to its sharers, so the windowed count is exactly the
// quantity a swizzle moves.

import (
	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
)

// Quant is the result of one windowed L2 reuse analysis.
type Quant struct {
	// LineBytes is the line granularity analyzed. Any positive value is
	// accepted, power of two or not: addresses bucket into
	// floor-aligned lineBytes segments either way (non-power-of-two
	// granularities model sectored or software-managed caches; they are
	// just a different bucketing, not an error).
	LineBytes int
	// Window is the co-residency window width in CTAs: how many CTAs
	// the whole GPU holds concurrently at this kernel's occupancy.
	Window int
	// Windows is the number of windows the dispatch order was cut into.
	Windows int
	// Accesses is the total number of line-granular read requests
	// (post-coalescing segments) issued by all CTAs.
	Accesses uint64
	// Fetches counts distinct (window, line) pairs: the compulsory L2
	// fetches if the L2 retained every line for a full co-residency
	// window. Fewer fetches at equal accesses means more reuse.
	Fetches uint64
	// SharedLines counts fetched lines touched by at least two distinct
	// CTAs of the same window — the inter-CTA share of the footprint.
	SharedLines uint64
	// CrossReuses counts read requests that hit a window-resident line
	// first touched by a different CTA: the cross-CTA L2 hits a perfect
	// swizzle maximizes.
	CrossReuses uint64
}

// SharedFraction is the fraction of window-compulsory fetches whose
// line is shared by co-resident CTAs.
func (q Quant) SharedFraction() float64 {
	if q.Fetches == 0 {
		return 0
	}
	return float64(q.SharedLines) / float64(q.Fetches)
}

// lineState tracks one resident line within the current window.
type lineState struct {
	firstCTA int32
	shared   bool
}

// Analyzer runs windowed L2 reuse analyses. It is reusable and keeps
// its line map and coalescing scratch across calls, so a warm Analyzer
// analyzing a trace-static kernel allocates nothing (the zero-alloc
// contract in alloc_test.go); analyzing real workloads is dominated by
// the kernel's own Work trace generation. Not safe for concurrent use.
type Analyzer struct {
	lines   map[uint64]lineState
	scratch []uint64
}

// NewAnalyzer returns an Analyzer with a pre-sized line map and
// coalescing scratch.
func NewAnalyzer() *Analyzer {
	return &Analyzer{lines: make(map[uint64]lineState, 1024), scratch: make([]uint64, 0, 64)}
}

// Analyze quantifies cross-CTA L2 line sharing of k on ar, with the
// co-residency window derived from occupancy: the number of CTAs the
// whole GPU holds at once (CTAs/SM × SMs) at k's register, warp and
// shared-memory footprint.
func (a *Analyzer) Analyze(k kernel.Kernel, ar *arch.Arch) Quant {
	occ := ar.OccupancyFor(k.WarpsPerCTA(), k.RegsPerThread(ar.Gen), k.SharedMemPerCTA())
	window := occ.CTAsPerSM * ar.SMs
	return a.AnalyzeWindow(k, ar.L2Line, window)
}

// AnalyzeWindow is Analyze with an explicit line granularity and window
// width (both clamped to at least 1 CTA / kernel.DefaultLineBytes). It
// walks the dispatch order u = 0..N-1 in consecutive windows of the
// given width, counting line-granular reads against the lines the
// current window has already fetched. CTAs are launched placement-free
// (Launch{CTA: u} only); kernels whose Work reads SM/Slot bindings
// (agent-clustered kernels) should be analyzed before that transform.
func (a *Analyzer) AnalyzeWindow(k kernel.Kernel, lineBytes, window int) Quant {
	if lineBytes <= 0 {
		lineBytes = kernel.DefaultLineBytes
	}
	if window < 1 {
		window = 1
	}
	if a.lines == nil {
		a.lines = make(map[uint64]lineState, 1024)
	}
	clear(a.lines)
	q := Quant{LineBytes: lineBytes, Window: window}
	n := k.GridDim().Count()
	for u := 0; u < n; u++ {
		if u%window == 0 {
			clear(a.lines)
			q.Windows++
		}
		a.scratch = kernel.EachLine(k.Work(kernel.Launch{CTA: u}), lineBytes, a.scratch, func(op *kernel.Op, lines []uint64) {
			if op.Kind != kernel.OpMem || op.Mem.Write {
				return
			}
			for _, seg := range lines {
				q.Accesses++
				st, ok := a.lines[seg]
				if !ok {
					q.Fetches++
					a.lines[seg] = lineState{firstCTA: int32(u)}
					continue
				}
				if st.firstCTA != int32(u) {
					q.CrossReuses++
					if !st.shared {
						st.shared = true
						a.lines[seg] = st
						q.SharedLines++
					}
				}
			}
		})
	}
	return q
}

// VariantScore is one swizzle's analyzer outcome for a kernel.
type VariantScore struct {
	Swizzle string
	Quant   Quant
}

// Prediction ranks every registered swizzle for one (kernel, arch).
type Prediction struct {
	// Best is the predicted-fastest swizzle: the largest cross-CTA
	// reuse *fraction* (CrossReuses / Accesses — the share of all read
	// requests served by a line a co-resident other CTA fetched first,
	// the quantity a swizzle exists to maximize). "identity" is the
	// incumbent and only a strictly larger fraction displaces it, so a
	// swizzle-insensitive kernel — every variant scoring the same —
	// keeps the unswizzled baseline instead of picking up whatever
	// remap sorts first, as ranking by raw fetch counts with a
	// first-wins tie-break used to. The shared-line fraction
	// (SharedLines / Fetches) is deliberately not the ranking: a good
	// swizzle shrinks its own denominator — fewer compulsory fetches —
	// so a remap that genuinely cuts fetches can score a *lower*
	// shared fraction than the baseline it beats.
	Best string
	// Scores holds one entry per registered swizzle, in Names() order.
	Scores []VariantScore
}

// crossMoreThan reports whether a's cross-CTA reuse fraction
// (CrossReuses / Accesses) is strictly greater than b's, compared
// exactly by cross-multiplication so equal fractions never displace an
// incumbent through float rounding. A zero-access quant has fraction
// zero. (Accesses are swizzle-invariant for a pure remap, so between
// variants of one kernel this reduces to comparing reuse counts; the
// normalization keeps the comparison meaningful for arbitrary quants.)
func crossMoreThan(a, b Quant) bool {
	return a.CrossReuses*b.Accesses > b.CrossReuses*a.Accesses
}

// PredictBest wraps k with every registered swizzle, analyzes each on
// ar, and predicts the best one by maximum cross-CTA reuse fraction
// with identity as the tie-winning incumbent.
func (a *Analyzer) PredictBest(k kernel.Kernel, ar *arch.Arch) (Prediction, error) {
	var p Prediction
	var best Quant
	for _, name := range Names() {
		sk, err := WrapFor(name, k, ar)
		if err != nil {
			return Prediction{}, err
		}
		q := a.Analyze(sk, ar)
		p.Scores = append(p.Scores, VariantScore{Swizzle: name, Quant: q})
		if name == Identity {
			// The incumbent: any candidate must strictly beat it.
			if p.Best == "" || !crossMoreThan(best, q) {
				p.Best, best = name, q
			}
			continue
		}
		if p.Best == "" || crossMoreThan(q, best) {
			p.Best, best = name, q
		}
	}
	return p, nil
}
