// Command ctatrace inspects how a kernel's CTAs were placed and how
// they performed: per-SM dispatch lists with cycle spans and memory
// latencies, before and after clustering. It is the debugging companion
// to cmd/ctacluster — when a clustering decision underperforms, the
// trace shows whether the cause is placement, imbalance or latency.
// The placement it prints is the CTA→SM binding of Section 4.2-(3);
// the per-SM latency summaries mirror the Figure 2 access-cycle view.
//
// Usage:
//
//	ctatrace -app ATX -arch GTX570            # baseline placement
//	ctatrace -app ATX -arch GTX570 -clustered # agent-based clustering
//	ctatrace -app ATX -arch GTX570 -sm 0      # one SM's timeline
//	ctatrace -app ATX -arch GTX570 -swizzle xor # trace the swizzled placement
//	ctatrace -app ATX -arch GTX570 -chiplet 2   # trace on the 2-die variant
//
// -swizzle applies a CTA tile swizzle (internal/swizzle) under the
// traced kernel — baseline or clustered — and changes the placement it
// prints.
// -chiplet N traces on the N-die chiplet variant of the platform
// (arch.WithChiplets); 0 keeps the monolithic model.
package main

import (
	"flag"
	"fmt"
	"log"

	"ctacluster/internal/cli"
	"ctacluster/internal/engine"
	"ctacluster/internal/eval"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ctatrace: ")
	appName := flag.String("app", "", "application (Table 2 abbreviation)")
	archName := flag.String("arch", "TeslaK40", "target platform")
	clustered := flag.Bool("clustered", false, "trace the agent-clustered kernel instead of the baseline")
	agents := flag.Int("agents", 0, "active agents per SM when -clustered (0 = max)")
	smID := flag.Int("sm", -1, "print the per-CTA timeline of one SM (-1: summary of all)")
	swizzleFlag := cli.RegisterSwizzleFlag()
	chipletFlag := cli.RegisterChipletFlag()
	flag.Parse()

	ar, err := cli.Platform(*archName)
	if err != nil {
		log.Fatal(err)
	}
	if ar, err = cli.ChipletOne(*chipletFlag, ar); err != nil {
		log.Fatal(err)
	}
	app, err := cli.App(*appName)
	if err != nil {
		log.Fatal(err)
	}

	swz, err := cli.Swizzle(*swizzleFlag)
	if err != nil {
		log.Fatal(err)
	}
	// The swizzle wraps underneath clustering, mirroring the evaluation.
	spec := eval.Spec{Swizzle: swz}
	if *clustered {
		spec.Scheme, spec.Agents = "CLU", *agents
	}
	k, _, err := spec.Kernel(app, ar)
	if err != nil {
		log.Fatal(err)
	}

	res, err := engine.Run(engine.DefaultConfig(ar), k)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on %s: %d cycles, %d CTAs, L1 hit %.1f%%, L2 read txns %d, occupancy %.2f\n\n",
		res.Kernel, ar.Name, res.Cycles, len(res.CTAs),
		100*res.L1.HitRate(), res.L2ReadTransactions(), res.AchievedOccupancy)

	if *smID >= 0 {
		if *smID >= len(res.PerSM) {
			log.Fatalf("SM %d out of range (0..%d)", *smID, len(res.PerSM)-1)
		}
		fmt.Printf("SM %d timeline (%d CTAs):\n", *smID, len(res.PerSM[*smID]))
		fmt.Printf("  %-8s %-6s %-10s %-10s %-8s %-12s\n",
			"CTA", "slot", "dispatch", "retire", "mem ops", "avg lat")
		for _, id := range res.PerSM[*smID] {
			r := res.CTAs[id]
			status := ""
			if r.Skipped {
				status = " (skipped)"
			}
			fmt.Printf("  %-8d %-6d %-10d %-10d %-8d %-12.0f%s\n",
				r.CTA, r.Slot, r.Dispatched, r.Retired, r.MemOps, r.AvgAccessCycles(), status)
		}
		return
	}

	fmt.Printf("per-SM summary:\n")
	fmt.Printf("  %-4s %-6s %-10s %-12s %-10s\n", "SM", "CTAs", "last ret.", "avg memlat", "L1 hit")
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
		fmt.Printf("  %-4d %-6d %-10d %-12.0f %-10.2f\n",
			sm, len(ids), last, avg, res.L1PerSM[sm].HitRate())
	}
	var minT, maxT int64 = 1 << 62, 0
	for sm := range res.PerSM {
		var last int64
		for _, id := range res.PerSM[sm] {
			if r := res.CTAs[id]; r.Retired > last {
				last = r.Retired
			}
		}
		if last < minT {
			minT = last
		}
		if last > maxT {
			maxT = last
		}
	}
	if maxT > 0 {
		fmt.Printf("\nSM finish spread: %d .. %d (%.1f%% imbalance)\n",
			minT, maxT, 100*float64(maxT-minT)/float64(maxT))
	}
}
