// Command ctaprof is the simulator's nvprof: it runs one application
// under a chosen scheme with the profiling subsystem attached and dumps
// a Chrome trace_event JSON timeline (load it in chrome://tracing or
// https://ui.perfetto.dev — one lane per SM, CTA lifetime slices, warp
// stalls, counter series) plus an nvprof-style metrics CSV keyed by the
// counter names the paper's figures use (l2_read_transactions,
// achieved_occupancy, l1_global_hit_rate). On stdout it prints a run
// summary and the per-SM placement view (report.PerSMSummary): CTAs,
// last retirement, memory latency and L1 hit rate per SM, and the
// spread of SM finish times; -sm N prints SM N's CTA timeline instead.
//
// Usage:
//
//	ctaprof -app mm -arch teslak40                  # baseline, CTA timeline
//	ctaprof -app ATX -arch GTX570 -scheme CLU       # agent-clustered
//	ctaprof -app ATX -arch GTX570 -scheme CLU -agents 2 -bypass
//	ctaprof -app ATX -arch GTX570 -scheme CLU -sm 0 # SM 0's CTA timeline
//	ctaprof -app mm -arch teslak40 -events all      # every event class
//	ctaprof -app mm -arch teslak40 -o /tmp/prof -interval 1024
//	ctaprof -app mm -arch teslak40 -swizzle xor     # profile the swizzled kernel
//	ctaprof -app mm -arch teslak40 -chiplet 2       # profile on the 2-die variant
//
// App, platform and scheme names match case-insensitively; unknown names
// are an error (non-zero exit), never a silent skip, and so are -agents,
// -bypass or -prefetch without -scheme CLU. -swizzle applies a CTA
// tile swizzle (internal/swizzle) under the chosen scheme, changing the
// recorded trace and metrics. -chiplet N
// profiles on the N-die chiplet variant of the platform
// (arch.WithChiplets); the trace then marks interposer-crossing L2
// transactions and the metrics CSV gains the remote_l2_transactions and
// interposer_bytes rows.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ctacluster/internal/cli"
	"ctacluster/internal/engine"
	"ctacluster/internal/eval"
	"ctacluster/internal/prof"
	"ctacluster/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ctaprof: ")
	appName := flag.String("app", "", "application (Table 2 abbreviation)")
	archName := flag.String("arch", "TeslaK40", "target platform")
	scheme := flag.String("scheme", "BSL", "scheme to profile: BSL, RD or CLU")
	agents := flag.Int("agents", 0, "active agents per SM when -scheme CLU (0 = max)")
	bypass := flag.Bool("bypass", false, "bypass streaming accesses (CLU only)")
	prefetch := flag.Bool("prefetch", false, "prefetch instead of clustering (CLU only)")
	events := flag.String("events", "cta,stall", "event classes to trace: cta, stall, mem, cache, l2, all")
	interval := flag.Int64("interval", 4096, "counter-snapshot period in cycles (0 = off)")
	outDir := flag.String("o", ".", "output directory for the trace and metrics files")
	smID := flag.Int("sm", -1, "print the CTA timeline of SM N instead of the per-SM summary (-1 = summary)")
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
	if *smID >= ar.SMs {
		log.Fatalf("SM %d out of range (0..%d)", *smID, ar.SMs-1)
	}
	app, err := cli.App(*appName)
	if err != nil {
		log.Fatal(err)
	}
	mask, err := prof.ParseEvents(*events)
	if err != nil {
		log.Fatal(err)
	}

	swz, err := cli.Swizzle(*swizzleFlag)
	if err != nil {
		log.Fatal(err)
	}
	// The swizzle wraps underneath the scheme, mirroring the evaluation:
	// BSL profiles the pure swizzled kernel, RD/CLU the transform over it.
	spec := eval.Spec{Swizzle: swz, Scheme: *scheme, Agents: *agents, Bypass: *bypass, Prefetch: *prefetch}
	k, label, err := spec.Kernel(app, ar)
	if err != nil {
		log.Fatal(err)
	}

	tr := prof.NewTrace(prof.TraceConfig{
		Kernel: app.Name(), Arch: ar.Name, Label: label, SMs: ar.SMs,
		Events: mask, SampleInterval: *interval,
	})
	cfg := engine.DefaultConfig(ar)
	cfg.Profiler = tr
	res, err := engine.Run(cfg, k)
	if err != nil {
		log.Fatal(err)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	base := fmt.Sprintf("%s_%s_%s", app.Name(), ar.Name, label)
	tracePath := filepath.Join(*outDir, base+".trace.json")
	metricsPath := filepath.Join(*outDir, base+".metrics.csv")

	tf, err := os.Create(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	if err := prof.WriteChromeTrace(tf, tr); err != nil {
		log.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		log.Fatal(err)
	}

	mf, err := os.Create(metricsPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := prof.WriteMetricsCSV(mf, res.ProfMetrics()); err != nil {
		log.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s (%s) on %s: %d cycles, L2 read txns %d, L1 hit %.1f%%, occupancy %.2f\n",
		res.Kernel, label, ar.Name, res.Cycles, res.L2ReadTransactions(),
		100*res.L1.HitRate(), res.AchievedOccupancy)
	fmt.Printf("recorded %d events, %d counter snapshots\n", len(tr.Events()), len(tr.Snapshots()))
	fmt.Printf("trace:   %s\nmetrics: %s\n\n", tracePath, metricsPath)
	if *smID >= 0 {
		report.SMTimeline(os.Stdout, res, *smID)
	} else {
		report.PerSMSummary(os.Stdout, res)
	}
}
