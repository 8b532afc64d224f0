// Command ctacalib is the calibration and validation harness: it fits
// the architecture latency tables to the committed Figure 2
// microbenchmark reference curves and scores the reproduction's per-app
// cycles and speedups against the committed targets (internal/calib,
// DESIGN.md §14).
//
// Usage:
//
//	ctacalib seed [-out DIR] [-arch NAME] [-apps CSV] [-parallel N]
//	ctacalib fit [-arch NAME] [-chiplet N] [-max-sweeps N]
//	ctacalib report [-json] [-arch NAME] [-apps CSV] [-parallel N]
//
// seed regenerates the committed reference store (internal/calib/
// testdata) from the simulator at the committed latency tables; fit
// runs the deterministic coordinate descent against the committed
// curves and prints the fitted table as a diff without touching the
// registry; report renders the correlation matrix — text by default,
// canonical JSON (the BENCH_calib.json payload) with -json. Every
// output is byte-identical at every -parallel setting.
package main

import (
	"flag"
	"log"
	"os"

	"ctacluster/internal/arch"
	"ctacluster/internal/calib"
	"ctacluster/internal/cli"
	"ctacluster/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ctacalib: ")

	cmd, rest, err := cli.Subcommand(os.Args[1:], "seed", "fit", "report")
	if err != nil {
		log.Fatal(err)
	}

	archFlag := flag.String("arch", "", "platform to target (empty = all four Table 1 platforms)")
	appsFlag := flag.String("apps", "", "comma-separated application names (empty = the full Table 2 set)")
	jsonOut := flag.Bool("json", false, "report: emit canonical JSON (the BENCH_calib.json payload) instead of text")
	outDir := flag.String("out", "internal/calib/testdata", "seed: directory to write the reference store into")
	maxSweeps := flag.Int("max-sweeps", 0, "fit: bound on coordinate-descent sweeps (0 = the package default)")
	chiplet := cli.RegisterChipletFlag()
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
	apps, err := cli.Apps(*appsFlag)
	if err != nil {
		log.Fatal(err)
	}
	opt := calib.ReportOptions{Parallelism: parallel}

	switch cmd {
	case "seed":
		if *chiplet != 0 {
			log.Fatal("seed generates the chiplet curve variants itself; drop -chiplet")
		}
		runSeed(*outDir, platforms, apps, opt)
	case "fit":
		platforms, err = cli.Chiplet(*chiplet, platforms)
		if err != nil {
			log.Fatal(err)
		}
		runFit(platforms, *maxSweeps)
	case "report":
		platforms, err = cli.Chiplet(*chiplet, platforms)
		if err != nil {
			log.Fatal(err)
		}
		runReport(platforms, apps, *jsonOut, opt)
	}
}

func runSeed(dir string, platforms []*arch.Arch, apps []*workloads.App, opt calib.ReportOptions) {
	ref, err := calib.BuildReference(platforms, apps, opt)
	if err != nil {
		log.Fatal(err)
	}
	if err := calib.WriteDir(dir, ref); err != nil {
		log.Fatal(err)
	}
	// Round-trip what was written: a store the loader rejects would be
	// a codec bug better caught here than at the next test run.
	if _, err := calib.LoadDir(dir); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d curve files and %d app targets to %s", len(ref.Curves), len(ref.Apps), dir)
}

func runFit(platforms []*arch.Arch, maxSweeps int) {
	ref, err := calib.Load()
	if err != nil {
		log.Fatal(err)
	}
	for _, ar := range platforms {
		res, err := calib.Fit(ar, ref, calib.FitOptions{MaxSweeps: maxSweeps})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("== %s ==", ar.Name)
		log.Printf("curve RMS %.4f -> %.4f (%d sweeps, %d evals)", res.Before, res.After, res.Sweeps, res.Evals)
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

func runReport(platforms []*arch.Arch, apps []*workloads.App, jsonOut bool, opt calib.ReportOptions) {
	ref, err := calib.Load()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := calib.BuildReport(platforms, apps, ref, opt)
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	rep.WriteText(os.Stdout)
}
