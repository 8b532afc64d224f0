// Command evaluate reproduces the paper's evaluation section: Table 1,
// Table 2, and the Figure 12 (speedup, achieved occupancy) and Figure 13
// (L2 transactions, L1 hit rate) panels for every architecture.
//
// Usage:
//
//	evaluate                     # full sweep, all four GPUs, 24 apps
//	evaluate -arch TeslaK40      # one platform
//	evaluate -apps MM,KMN        # subset of applications
//	evaluate -table1 -table2     # just the tables
//	evaluate -quick              # skip the throttle sweep
//	evaluate -csv DIR            # additionally write CSV files to DIR
//	evaluate -parallel 8         # fan the sweep out over 8 workers
//	evaluate -swizzle xor        # CTA tile swizzle under every scheme
//	evaluate -swizzle-compare    # clustering vs swizzling vs both
//	evaluate -chiplet 2          # sweep on 2-die chiplet variants
//	evaluate -chiplet 2 -chiplet-compare # placement study on chiplet GPUs
//	evaluate -json               # machine-readable output (ctad schema)
//
// Unknown -arch or -apps names are an error (non-zero exit), never a
// silent skip. -parallel 0 (the default) uses one worker per CPU;
// results are byte-identical for every parallelism setting.
//
// -swizzle applies a CTA tile swizzle (internal/swizzle) to every
// kernel before any clustering transform; unlike -parallel it is
// result-affecting. -swizzle-compare runs the three-way
// clustering-vs-swizzling-vs-both comparison per (app, arch) cell and
// scores the L2 reuse analyzer's predicted-best swizzle against the
// measured L2 read transactions; with -json it emits one
// api.SwizzleCompareResponse document (the BENCH_swizzle.json schema).
//
// -chiplet N splits every selected platform into N interposer-linked
// dies (arch.WithChiplets, DESIGN.md §13) before any sweep or
// comparison; 0 (the default) keeps the monolithic Table 1 models,
// byte-identical to an engine without the chiplet code. With
// -chiplet-compare (which requires -chiplet >= 2) it runs the four-way
// placement study — BSL, CLU, SWZ(dieblock), CLU+SWZ(dieblock) — per
// (app, arch) cell and reports cycles next to the interposer counters;
// with -json that emits one api.ChipletCompareResponse document (the
// BENCH_chiplet.json schema).
//
// -json renders the internal/api response structs the ctad daemon
// serves, so scripts can consume CLI and HTTP output with one decoder:
// the sweep becomes one api.SweepResponse document; -table1/-table2
// become an array of api.TableResponse documents.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"ctacluster/internal/api"
	"ctacluster/internal/arch"
	"ctacluster/internal/cli"
	"ctacluster/internal/eval"
	"ctacluster/internal/report"
	"ctacluster/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evaluate: ")
	archName := flag.String("arch", "", "run a single platform")
	appsFlag := flag.String("apps", "", "comma-separated app subset (default: all 24)")
	table1 := flag.Bool("table1", false, "print Table 1 (platforms) and exit")
	table2 := flag.Bool("table2", false, "print Table 2 (benchmarks) and exit")
	quick := flag.Bool("quick", false, "skip the throttle sweep (CLU+TOT = CLU)")
	csvDir := flag.String("csv", "", "also write CSV files into this directory")
	parallelFlag := cli.RegisterParallelFlag()
	swizzleFlag := cli.RegisterSwizzleFlag()
	chipletFlag := cli.RegisterChipletFlag()
	swizzleCompare := flag.Bool("swizzle-compare", false, "run the clustering-vs-swizzling-vs-both comparison instead of the scheme sweep")
	chipletCompare := flag.Bool("chiplet-compare", false, "run the chiplet placement comparison (requires -chiplet >= 2) instead of the scheme sweep")
	jsonOut := flag.Bool("json", false, "emit JSON in the ctad daemon's response schema")
	verbose := flag.Bool("v", false, "print per-app progress")
	flag.Parse()

	if *table1 || *table2 {
		if *jsonOut {
			var tables []api.TableResponse
			if *table1 {
				tables = append(tables, api.TableResponseFrom(report.Table1(arch.All())))
			}
			if *table2 {
				tables = append(tables, api.TableResponseFrom(report.Table2(workloads.Table2())))
			}
			if err := api.Encode(os.Stdout, tables); err != nil {
				log.Fatal(err)
			}
			return
		}
		if *table1 {
			report.Table1(arch.All()).Write(os.Stdout)
			fmt.Println()
		}
		if *table2 {
			report.Table2(workloads.Table2()).Write(os.Stdout)
		}
		return
	}

	platforms, err := cli.Platforms(*archName)
	if err != nil {
		log.Fatal(err)
	}
	apps, err := cli.Apps(*appsFlag)
	if err != nil {
		log.Fatal(err)
	}
	parallel, err := cli.Parallelism(*parallelFlag)
	if err != nil {
		log.Fatal(err)
	}
	swz, err := cli.Swizzle(*swizzleFlag)
	if err != nil {
		log.Fatal(err)
	}
	platforms, err = cli.Chiplet(*chipletFlag, platforms)
	if err != nil {
		log.Fatal(err)
	}

	progress := func(string) {}
	if *verbose {
		progress = func(msg string) { fmt.Fprintf(os.Stderr, "evaluate: %s\n", msg) }
	}

	opt := eval.Options{Quick: *quick, Parallelism: parallel, Swizzle: swz}

	if *chipletCompare {
		if *chipletFlag == 0 {
			log.Fatal("-chiplet-compare needs a chiplet model; add -chiplet N (2-8 dies)")
		}
		if swz != "" {
			log.Fatal("-chiplet-compare applies the die-aware swizzle itself; do not combine it with -swizzle")
		}
		if *swizzleCompare {
			log.Fatal("-chiplet-compare and -swizzle-compare are separate studies; pick one")
		}
		comparisons, err := eval.CompareChipletMatrix(platforms, apps, opt, progress)
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut {
			if err := api.Encode(os.Stdout, api.ChipletCompareResponseFrom(comparisons)); err != nil {
				log.Fatal(err)
			}
			return
		}
		for _, c := range comparisons {
			fmt.Printf("%s on %s (%d dies): best %s\n", c.App.Name(), c.Arch.Name, c.Arch.Chiplets, c.Best)
			for _, cell := range c.Cells {
				fmt.Printf("  %-18s %8d cycles  %.2fx  L2 txn %8d  remote %6d (%.0f%%)  interposer %8d B  L1 hit %.2f\n",
					cell.Label, cell.Cycles, cell.Speedup, cell.L2Txn,
					cell.RemoteTxn, 100*cell.RemoteFrac, cell.InterposerBytes, cell.L1Hit)
			}
			fmt.Println()
		}
		return
	}

	if *swizzleCompare {
		if swz != "" {
			log.Fatal("-swizzle-compare sweeps every swizzle itself; do not combine it with -swizzle")
		}
		comparisons, err := eval.CompareSwizzleMatrix(platforms, apps, opt, progress)
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut {
			if err := api.Encode(os.Stdout, api.SwizzleCompareResponseFrom(comparisons)); err != nil {
				log.Fatal(err)
			}
			return
		}
		for _, c := range comparisons {
			fmt.Printf("%s on %s (window %d CTAs, %d-byte lines): predicted %s, measured %s",
				c.App.Name(), c.Arch.Name, c.Window, c.LineBytes, c.PredictedBest, c.MeasuredBest)
			if c.PredictionHit {
				fmt.Printf("  [hit]\n")
			} else {
				fmt.Printf("  [miss]\n")
			}
			for _, cell := range c.Cells {
				pred := ""
				if cell.Predicted != nil {
					pred = fmt.Sprintf("  predicted fetches %d, shared %.2f", cell.Predicted.Fetches, cell.Predicted.SharedFraction())
				}
				fmt.Printf("  %-18s %8d cycles  %.2fx  L2 txn %8d (%+.1f%%)  L1 hit %.2f%s\n",
					cell.Label, cell.Cycles, cell.Speedup, cell.L2Txn, 100*cell.L2Delta, cell.L1Hit, pred)
			}
			fmt.Println()
		}
		return
	}

	sweep, err := eval.EvaluateAll(platforms, apps, opt, progress)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		if err := api.Encode(os.Stdout, api.SweepResponseFrom(sweep)); err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, pr := range sweep {
		ar, results := pr.Arch, pr.Results
		fmt.Printf("==================== %s (%s) ====================\n\n", ar.Name, ar.Gen)
		tables := append(report.Figure12(ar, results), report.Figure13(ar, results)...)
		for _, t := range tables {
			t.Write(os.Stdout)
			fmt.Println()
			if *csvDir != "" {
				writeCSV(*csvDir, t)
			}
		}
	}
}

func writeCSV(dir string, t *report.Table) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, t.Title)
	if len(name) > 80 {
		name = name[:80]
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	t.WriteCSV(f)
}
