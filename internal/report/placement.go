package report

// Per-SM placement view of one run: where each CTA ran, when each SM
// finished and what latency its memory accesses saw. It is the
// debugging companion to clustering — when a placement underperforms,
// the view shows whether the cause is placement, imbalance or latency.
// The placement is the CTA→SM binding of Section 4.2-(3); the latency
// columns mirror the Figure 2 access-cycle view.

import (
	"fmt"
	"io"

	"ctacluster/internal/engine"
)

// PerSMSummary writes one line per SM — CTAs executed, last retirement
// cycle, mean memory latency and L1 hit rate — followed by the spread
// of SM finish times.
func PerSMSummary(w io.Writer, res *engine.Result) {
	fmt.Fprintf(w, "per-SM summary:\n")
	fmt.Fprintf(w, "  %-4s %-6s %-10s %-12s %-10s\n", "SM", "CTAs", "last ret.", "avg memlat", "L1 hit")
	var minT, maxT int64 = 1 << 62, 0
	for sm, ids := range res.PerSM {
		var last, lat, ops int64
		for _, id := range ids {
			r := res.CTAs[id]
			if r.Retired > last {
				last = r.Retired
			}
			lat += r.MemLatency
			ops += r.MemOps
		}
		avg := 0.0
		if ops > 0 {
			avg = float64(lat) / float64(ops)
		}
		fmt.Fprintf(w, "  %-4d %-6d %-10d %-12.0f %-10.2f\n",
			sm, len(ids), last, avg, res.L1PerSM[sm].HitRate())
		minT, maxT = min(minT, last), max(maxT, last)
	}
	if maxT > 0 {
		fmt.Fprintf(w, "\nSM finish spread: %d .. %d (%.1f%% imbalance)\n",
			minT, maxT, 100*float64(maxT-minT)/float64(maxT))
	}
}

// SMTimeline writes the CTAs SM sm executed, in dispatch order, with
// their slot, dispatch and retire cycles and memory latency.
func SMTimeline(w io.Writer, res *engine.Result, sm int) {
	fmt.Fprintf(w, "SM %d timeline (%d CTAs):\n", sm, len(res.PerSM[sm]))
	fmt.Fprintf(w, "  %-8s %-6s %-10s %-10s %-8s %-12s\n",
		"CTA", "slot", "dispatch", "retire", "mem ops", "avg lat")
	for _, id := range res.PerSM[sm] {
		r := res.CTAs[id]
		status := ""
		if r.Skipped {
			status = " (skipped)"
		}
		fmt.Fprintf(w, "  %-8d %-6d %-10d %-10d %-8d %-12.0f%s\n",
			r.CTA, r.Slot, r.Dispatched, r.Retired, r.MemOps, r.AvgAccessCycles(), status)
	}
}
