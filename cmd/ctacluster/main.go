// Command ctacluster is the inter-CTA locality optimization framework
// CLI (Figure 11): it categorizes a kernel's source of inter-CTA
// locality, derives the partition direction from its array references,
// applies the chosen transform (agent-based clustering or reshaped-order
// prefetching) and reports before/after metrics.
//
// Usage:
//
//	ctacluster -app MM -arch TeslaK40
//	ctacluster -app MM -json
//	ctacluster -all -parallel 8
//	ctacluster -app MM -swizzle xor
//	ctacluster -app MM -chiplet 2
//	ctacluster -list
//
// Unknown -app or -arch names exit non-zero with the known names on
// stderr. -parallel fans the -all categorization out over workers.
// -json emits the analysis as one api.OptimizeResponse document — the
// exact schema the ctad daemon's POST /v1/optimize returns — and
// requires -app. -swizzle applies a CTA tile swizzle (internal/swizzle)
// under the analysis and both reported runs — the framework then
// categorizes and transforms the swizzled rasterization; unlike
// -parallel it changes the measured results. -chiplet N runs everything
// on the N-die chiplet variant of the platform (arch.WithChiplets,
// DESIGN.md §13); 0 keeps the monolithic model.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ctacluster/internal/api"
	"ctacluster/internal/cli"
	"ctacluster/internal/engine"
	"ctacluster/internal/eval"
	"ctacluster/internal/kernel"
	"ctacluster/internal/locality"
	"ctacluster/internal/swizzle"
	"ctacluster/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ctacluster: ")
	appName := flag.String("app", "", "application to optimize (Table 2 abbreviation)")
	archName := flag.String("arch", "TeslaK40", "target platform")
	list := flag.Bool("list", false, "list available applications")
	all := flag.Bool("all", false, "categorize every Table 2 app and score against ground truth")
	parallelFlag := cli.RegisterParallelFlag()
	swizzleFlag := cli.RegisterSwizzleFlag()
	chipletFlag := cli.RegisterChipletFlag()
	jsonOut := flag.Bool("json", false, "emit the analysis as JSON (ctad /v1/optimize schema); requires -app")
	flag.Parse()

	parallel, err := cli.Parallelism(*parallelFlag)
	if err != nil {
		log.Fatal(err)
	}
	swz, err := cli.Swizzle(*swizzleFlag)
	if err != nil {
		log.Fatal(err)
	}

	if *jsonOut && (*all || *list) {
		log.Fatal("-json applies to the single-app analysis (-app); -all and -list have no JSON form")
	}
	if swz != "" && *all {
		log.Fatal("-swizzle applies to the single-app analysis; -all scores categorization against each app's native-rasterization ground truth")
	}

	if *all {
		ar, err := cli.Platform(*archName)
		if err != nil {
			log.Fatal(err)
		}
		if ar, err = cli.ChipletOne(*chipletFlag, ar); err != nil {
			log.Fatal(err)
		}
		acc, err := eval.EvaluateFramework(ar, workloads.Table2(), eval.Options{Parallelism: parallel})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("framework categorization on %s:\n", ar.Name)
		for _, v := range acc.Verdicts {
			mark := " "
			if !v.ExploitOK {
				mark = "x"
			}
			fmt.Printf("  %s %-4s truth=%-10s estimated=%-10s\n", mark, v.App, v.Truth, v.Estimated)
		}
		fmt.Printf("\nexact category: %.0f%%   exploitability verdict: %.0f%%   partition direction: %.0f%%\n",
			100*acc.CategoryRate(), 100*acc.ExploitRate(), 100*acc.DirectionRate())
		return
	}

	if *list {
		for _, n := range workloads.Names() {
			a, err := workloads.New(n)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-5s %-10s %s\n", a.Name(), a.Category(), a.LongName())
		}
		return
	}
	if *appName == "" {
		log.Fatal("missing -app (use -list to see the options)")
	}

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

	// The swizzle wraps underneath the framework: analysis, transform
	// and both reported runs all see the swizzled rasterization, so the
	// before/after comparison isolates what clustering adds on top.
	// WrapFor: the die-aware family needs the (possibly chiplet)
	// platform descriptor.
	var k kernel.Kernel = app
	if swz != "" {
		if k, err = swizzle.WrapFor(swz, app, ar); err != nil {
			log.Fatal(err)
		}
	}

	if !*jsonOut {
		fmt.Printf("framework: analyzing %s (%s) on %s...\n", app.Name(), app.LongName(), ar.Name)
	}
	plan, err := locality.Optimize(k, ar)
	if err != nil {
		log.Fatal(err)
	}
	runCfg := engine.DefaultConfig(ar)
	if *jsonOut {
		base, err := engine.Run(runCfg, k)
		if err != nil {
			log.Fatal(err)
		}
		opt, err := engine.Run(runCfg, plan.Clustered)
		if err != nil {
			log.Fatal(err)
		}
		if err := api.Encode(os.Stdout, api.OptimizeResponseFrom(app, ar, plan, base, opt)); err != nil {
			log.Fatal(err)
		}
		return
	}
	a := plan.Analysis
	fmt.Printf("  reuse quantification:   %s\n", a.Quant)
	fmt.Printf("  coalescing degree:      %.2f\n", a.Probes.CoalescingDegree)
	fmt.Printf("  redirection probe:      L1 hit %.2f -> %.2f, L2 txn %d -> %d\n",
		a.Probes.BaselineL1Hit, a.Probes.RedirectL1Hit,
		a.Probes.BaselineL2Txn, a.Probes.RedirectL2Txn)
	fmt.Printf("  L1-off probe:           L2 txn %d -> %d\n",
		a.Probes.BaselineL2Txn, a.Probes.L1OffL2Txn)
	fmt.Printf("  estimated category:     %s (ground truth: %s)\n", a.Category, app.Category())
	fmt.Printf("  decision:               %s\n\n", plan.Description)

	base, err := engine.Run(runCfg, k)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := engine.Run(runCfg, plan.Clustered)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  baseline:  %8d cycles, L1 hit %.2f, L2 read txns %d\n",
		base.Cycles, base.L1.HitRate(), base.L2ReadTransactions())
	fmt.Printf("  optimized: %8d cycles, L1 hit %.2f, L2 read txns %d (%s)\n",
		opt.Cycles, opt.L1.HitRate(), opt.L2ReadTransactions(), plan.Clustered.Name())
	fmt.Printf("  speedup:   %.2fx, L2 transactions %.0f%% of baseline\n",
		float64(base.Cycles)/float64(opt.Cycles),
		100*float64(opt.L2ReadTransactions())/float64(base.L2ReadTransactions()))
}
