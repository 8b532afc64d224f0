// Package locality quantifies inter-CTA data reuse (Section 3.2,
// Figure 3) and implements the automatic optimization framework of
// Section 4.4 (Figure 11): estimating an application's source of
// inter-CTA locality, deriving the partition direction from the array
// reference structure, and dispatching to clustering or reshaped-order
// prefetching (Figure 5).
package locality

import (
	"fmt"

	"ctacluster/internal/kernel"
)

// Quant summarises the data reuse of a kernel's pre-L1 global-memory
// request stream, the way the paper instruments GPGPU-Sim for Figure 3.
// The quantification is data-driven and independent of cache design and
// CTA scheduling: requests are enumerated CTA by CTA in grid order at a
// fixed line granularity.
type Quant struct {
	LineBytes int

	Accesses uint64 // line-granular read requests before L1
	Reuses   uint64 // requests whose line was touched before
	InterCTA uint64 // ... by a different CTA at least once
	IntraCTA uint64 // ... only by the same CTA

	Lines          uint64 // distinct lines touched
	InterCTALines  uint64 // lines touched by >= 2 CTAs
	IntraOnlyLines uint64 // lines re-touched, single CTA only
	SingleUseLines uint64 // lines touched exactly once (streaming)

	// RWConflictLines counts lines written by one CTA and read by
	// another — the write-related signature of Figure 4-(D).
	RWConflictLines uint64

	// CoalescingDegree is mean(ideal transactions / actual transactions)
	// over read ops: 1.0 = perfectly coalesced.
	CoalescingDegree float64

	// ReadOps and GatherOps count warp-level read instructions and how
	// many of them used explicit per-lane addresses (runtime-dependent
	// gathers) — the signature of data-related locality (Figure 4-C).
	ReadOps   uint64
	GatherOps uint64
}

// GatherFrac is the fraction of reads whose addresses are only known at
// runtime.
func (q Quant) GatherFrac() float64 {
	if q.ReadOps == 0 {
		return 0
	}
	return float64(q.GatherOps) / float64(q.ReadOps)
}

// InterPct returns inter-CTA reuses over all reuses, the Figure 3 split.
func (q Quant) InterPct() float64 {
	if q.Reuses == 0 {
		return 0
	}
	return float64(q.InterCTA) / float64(q.Reuses)
}

// IntraPct returns intra-CTA reuses over all reuses.
func (q Quant) IntraPct() float64 {
	if q.Reuses == 0 {
		return 0
	}
	return float64(q.IntraCTA) / float64(q.Reuses)
}

// ReuseFraction returns the fraction of requests that are reuses at all.
func (q Quant) ReuseFraction() float64 {
	if q.Accesses == 0 {
		return 0
	}
	return float64(q.Reuses) / float64(q.Accesses)
}

func (q Quant) String() string {
	return fmt.Sprintf("accesses=%d reuse=%.0f%% inter=%.0f%% intra=%.0f%%",
		q.Accesses, 100*q.ReuseFraction(), 100*q.InterPct(), 100*q.IntraPct())
}

type lineInfo struct {
	firstCTA int32
	multi    bool // touched by more than one CTA
	touched  bool
	reads    uint32
	written  bool
	writer   int32
	rwCross  bool // written by one CTA, read by another
}

// Quantify walks every CTA of k (in row-major grid order, placement-
// independent) and classifies each line-granular request as fresh,
// intra-CTA reuse or inter-CTA reuse.
func Quantify(k kernel.Kernel, lineBytes int) Quant {
	if lineBytes <= 0 {
		lineBytes = kernel.DefaultLineBytes
	}
	q := Quant{LineBytes: lineBytes}
	lines := make(map[uint64]*lineInfo)
	total := k.GridDim().Count()

	var idealSum, actualSum float64
	var scratch []uint64
	for cta := 0; cta < total; cta++ {
		scratch = kernel.EachLine(k.Work(kernel.Launch{CTA: cta}), lineBytes, scratch, func(op *kernel.Op, txs []uint64) {
			m := &op.Mem
			if !m.Write {
				q.ReadOps++
				if m.Gather {
					q.GatherOps++
				}
				lanes := int(m.Lanes)
				if lanes == 0 {
					lanes = 1
				}
				size := int(m.Size)
				if size == 0 {
					size = 4
				}
				ideal := (lanes*size + lineBytes - 1) / lineBytes
				if ideal < 1 {
					ideal = 1
				}
				idealSum += float64(ideal)
				actualSum += float64(len(txs))
			}
			for _, a := range txs {
				li := lines[a]
				if li == nil {
					li = &lineInfo{firstCTA: int32(cta)}
					lines[a] = li
				}
				if m.Write {
					if li.written && li.writer != int32(cta) {
						li.multi = true
					}
					li.written = true
					li.writer = int32(cta)
					continue
				}
				q.Accesses++
				li.reads++
				if li.written && li.writer != int32(cta) {
					li.rwCross = true
				}
				if li.touched {
					q.Reuses++
					if li.multi || li.firstCTA != int32(cta) {
						q.InterCTA++
					} else {
						q.IntraCTA++
					}
				}
				if li.touched && li.firstCTA != int32(cta) {
					li.multi = true
				}
				li.touched = true
			}
		})
	}

	for _, li := range lines {
		q.Lines++
		switch {
		case li.multi:
			q.InterCTALines++
		case li.reads >= 2:
			q.IntraOnlyLines++
		default:
			q.SingleUseLines++
		}
		if li.rwCross {
			q.RWConflictLines++
		}
	}
	if actualSum > 0 {
		q.CoalescingDegree = idealSum / actualSum
	}
	return q
}
