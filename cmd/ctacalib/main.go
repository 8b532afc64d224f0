// Command ctacalib scores the reproduction against the paper and fits
// the architecture latency tables to the paper's Figure 2 points
// (internal/calib, DESIGN.md §14).
//
// Usage:
//
//	ctacalib fit [-arch NAME]
//	ctacalib report [-json] [-arch NAME] [-parallel N]
//
// fit runs the deterministic coordinate descent from the committed
// latency table toward the paper's Figure 2 points and prints the
// fitted table as a diff without touching the registry. report runs the
// evaluate sweep and scores its Figure 12/13 CLU+TOT panel geometric
// means, Table 2 agent counts and Figure 2 points against
// internal/calib/testdata/paper.csv — text by default, canonical JSON
// (the BENCH_calib.json payload) with -json, byte-identical at every
// -parallel setting. Only the four Table 1 GPUs have paper numbers.
package main

import (
	"flag"
	"log"
	"os"

	"ctacluster/internal/arch"
	"ctacluster/internal/calib"
	"ctacluster/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ctacalib: ")

	cmd, rest, err := cli.Subcommand(os.Args[1:], "fit", "report")
	if err != nil {
		log.Fatal(err)
	}

	archFlag := flag.String("arch", "", "platform to target (empty = all four Table 1 platforms)")
	jsonOut := flag.Bool("json", false, "report: emit canonical JSON (the BENCH_calib.json payload) instead of text")
	parallelFlag := cli.RegisterParallelFlag()
	os.Args = append(os.Args[:1:1], rest...)
	flag.Parse()

	parallel, err := cli.Parallelism(*parallelFlag)
	if err != nil {
		log.Fatal(err)
	}
	platforms, err := cli.Platforms(*archFlag)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := calib.Load()
	if err != nil {
		log.Fatal(err)
	}

	switch cmd {
	case "fit":
		runFit(platforms, ref)
	case "report":
		rep, err := calib.BuildReport(platforms, ref, parallel)
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut {
			if err := rep.WriteJSON(os.Stdout); err != nil {
				log.Fatal(err)
			}
			return
		}
		rep.WriteText(os.Stdout)
	}
}

func runFit(platforms []*arch.Arch, ref *calib.Reference) {
	for _, ar := range platforms {
		res, err := calib.Fit(ar, ref, calib.FitOptions{})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("== %s ==", ar.Name)
		log.Printf("Figure 2 point RMS %.4f -> %.4f (%d sweeps, %d evals)", res.Before, res.After, res.Sweeps, res.Evals)
		changed := res.Changed()
		if len(changed) == 0 {
			log.Printf("no parameter moved: the committed table is at the descent's local optimum")
			continue
		}
		for _, p := range changed {
			log.Printf("  %s: %d -> %d", p.Name, p.From, p.To)
		}
		log.Printf("fitted table differs from the committed descriptor; apply by editing internal/arch")
	}
}
