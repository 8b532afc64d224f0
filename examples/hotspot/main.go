// Example hotspot drives the automatic optimization framework (Figure
// 11) end-to-end on the hotspot thermal stencil: the framework probes
// the kernel (reuse quantification, redirection probe, L1-on/off probe),
// classifies its locality source, derives the partition direction from
// the array references, applies the chosen transform, and the example
// verifies the outcome against a manual scheme sweep.
package main

import (
	"fmt"
	"log"

	"ctacluster"
)

func main() {
	log.SetFlags(0)

	ar := ctacluster.Platform("GTX570")
	app, err := ctacluster.Benchmark("HS")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("hotspot (%s) on %s — framework-driven optimization\n\n", app.LongName(), ar.Name)

	// Step 1: what does the reuse look like before any optimization?
	q := ctacluster.Quantify(app, ar.L2Line)
	fmt.Printf("reuse:     %s\n", q)

	// Step 2: let the framework categorize and decide (Figure 5).
	plan, err := ctacluster.Optimize(app, ar)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("category:  %s (exploitable: %v)\n", plan.Analysis.Category, plan.Analysis.Exploitable)
	fmt.Printf("decision:  %s\n\n", plan.Description)

	// Step 3: measure.
	base, err := ctacluster.Simulate(ar, app)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := ctacluster.Simulate(ar, plan.Clustered)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline:  %d cycles, occupancy %.2f, L2 txns %d\n",
		base.Cycles, base.AchievedOccupancy, base.L2ReadTransactions())
	fmt.Printf("framework: %d cycles, occupancy %.2f, L2 txns %d  (%.2fx, %s)\n\n",
		opt.Cycles, opt.AchievedOccupancy, opt.L2ReadTransactions(),
		ctacluster.Speedup(base, opt), plan.Clustered.Name())

	// Step 4: sanity-check against the manual per-scheme sweep the
	// evaluation harness uses for Figures 12/13.
	res, err := ctacluster.EvaluateApp(ar, app)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("manual scheme sweep:")
	for _, cell := range res.Cells[1:] { // every scheme after BSL
		fmt.Printf("  %-12s %.2fx (L2 txns %3.0f%%, agents %d)\n",
			cell.Scheme, cell.Speedup, 100*cell.L2Norm, cell.Agents)
	}
}
