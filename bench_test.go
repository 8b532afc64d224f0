package ctacluster_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (Section 5). Each BenchmarkTableN / BenchmarkFigureN
// target reproduces the corresponding artifact and reports its headline
// numbers as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// doubles as the experiment runner. The Ablation benchmarks cover the
// design-choice discussions of Section 5.2: tile-wise indexing cost
// (observation 6), redirection's scheduler dependence (observation 1),
// and the configurable Fermi/Kepler L1 size.

import (
	"context"
	"io"
	"sync"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/eval"
	"ctacluster/internal/kernel"
	"ctacluster/internal/locality"
	"ctacluster/internal/report"
	"ctacluster/internal/workloads"
)

// --- Table 1 -----------------------------------------------------------

func BenchmarkTable1Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.Table1(arch.All()).Write(io.Discard)
	}
}

// --- Table 2 -----------------------------------------------------------

func BenchmarkTable2Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.Table2(workloads.Table2()).Write(io.Discard)
	}
}

// --- Figure 2: microbenchmark ------------------------------------------

func benchFigure2(b *testing.B, ar *arch.Arch, staggered bool) {
	b.Helper()
	var cold, warm float64
	for i := 0; i < b.N; i++ {
		res, err := engine.Run(engine.DefaultConfig(ar), workloads.NewMicrobench(ar, staggered))
		if err != nil {
			b.Fatal(err)
		}
		points, _, _ := workloads.Figure2Series(res)
		cold = points[0].Cycles
		warm = points[len(points)-1].Cycles
	}
	b.ReportMetric(cold, "cold-access-cycles")
	b.ReportMetric(warm, "warm-access-cycles")
}

func BenchmarkFigure2TemporalFermi(b *testing.B)   { benchFigure2(b, arch.GTX570(), false) }
func BenchmarkFigure2TemporalKepler(b *testing.B)  { benchFigure2(b, arch.TeslaK40(), false) }
func BenchmarkFigure2TemporalMaxwell(b *testing.B) { benchFigure2(b, arch.GTX980(), false) }
func BenchmarkFigure2TemporalPascal(b *testing.B)  { benchFigure2(b, arch.GTX1080(), false) }
func BenchmarkFigure2SpatialFermi(b *testing.B)    { benchFigure2(b, arch.GTX570(), true) }
func BenchmarkFigure2SpatialKepler(b *testing.B)   { benchFigure2(b, arch.TeslaK40(), true) }
func BenchmarkFigure2SpatialMaxwell(b *testing.B)  { benchFigure2(b, arch.GTX980(), true) }
func BenchmarkFigure2SpatialPascal(b *testing.B)   { benchFigure2(b, arch.GTX1080(), true) }

// --- Figure 3: reuse quantification --------------------------------------

func BenchmarkFigure3ReuseQuantification(b *testing.B) {
	apps := workloads.Figure3()
	var avgInter float64
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, app := range apps {
			q := locality.Quantify(app, 32)
			sum += q.InterPct()
		}
		avgInter = sum / float64(len(apps))
	}
	b.ReportMetric(100*avgInter, "avg-interCTA-%")
}

// --- Figures 12 & 13: the full evaluation sweep --------------------------
//
// The sweep for one architecture is expensive (23 apps x 6 schemes with
// a throttle sweep), so its results are memoized: the Figure 12 bench
// measures the sweep itself, the Figure 13 bench reuses the results and
// reports the cache-side metrics.

var (
	sweepMu    sync.Mutex
	sweepCache = map[string][]*eval.AppResult{}
)

func sweep(b *testing.B, ar *arch.Arch) []*eval.AppResult {
	b.Helper()
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if r, ok := sweepCache[ar.Name]; ok {
		return r
	}
	all, err := eval.EvaluateAll([]*arch.Arch{ar}, workloads.Table2(), eval.Options{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	r := all[0].Results
	sweepCache[ar.Name] = r
	return r
}

func categoryGeoMeans(results []*eval.AppResult, scheme eval.Scheme,
	metric func(eval.Cell) float64) (algo, cacheline, rest float64) {
	gm := eval.PanelGeoMeans(results, scheme, metric)
	return gm[0], gm[1], gm[2]
}

func benchFigure12(b *testing.B, ar *arch.Arch) {
	b.Helper()
	var results []*eval.AppResult
	for i := 0; i < b.N; i++ {
		sweepMu.Lock()
		delete(sweepCache, ar.Name) // measure the real sweep each iteration
		sweepMu.Unlock()
		results = sweep(b, ar)
	}
	best := func(c eval.Cell) float64 { return c.Speedup }
	algo, cl, rest := categoryGeoMeans(results, eval.CLUTOTBPS, best)
	algoT, clT, _ := categoryGeoMeans(results, eval.CLUTOT, best)
	if algoT > algo {
		algo = algoT
	}
	if clT > cl {
		cl = clT
	}
	b.ReportMetric(algo, "gm-speedup-algorithm")
	b.ReportMetric(cl, "gm-speedup-cacheline")
	b.ReportMetric(rest, "gm-speedup-other")
	for _, t := range report.Figure12(ar, results) {
		t.Write(io.Discard)
	}
}

func BenchmarkFigure12Fermi(b *testing.B)   { benchFigure12(b, arch.GTX570()) }
func BenchmarkFigure12Kepler(b *testing.B)  { benchFigure12(b, arch.TeslaK40()) }
func BenchmarkFigure12Maxwell(b *testing.B) { benchFigure12(b, arch.GTX980()) }
func BenchmarkFigure12Pascal(b *testing.B)  { benchFigure12(b, arch.GTX1080()) }

func benchFigure13(b *testing.B, ar *arch.Arch) {
	b.Helper()
	results := sweep(b, ar)
	for i := 0; i < b.N; i++ {
		for _, t := range report.Figure13(ar, results) {
			t.Write(io.Discard)
		}
	}
	l2 := func(c eval.Cell) float64 { return c.L2Norm }
	algo, cl, rest := categoryGeoMeans(results, eval.CLUTOT, l2)
	b.ReportMetric(algo, "gm-l2txn-algorithm")
	b.ReportMetric(cl, "gm-l2txn-cacheline")
	b.ReportMetric(rest, "gm-l2txn-other")
}

func BenchmarkFigure13Fermi(b *testing.B)   { benchFigure13(b, arch.GTX570()) }
func BenchmarkFigure13Kepler(b *testing.B)  { benchFigure13(b, arch.TeslaK40()) }
func BenchmarkFigure13Maxwell(b *testing.B) { benchFigure13(b, arch.GTX980()) }
func BenchmarkFigure13Pascal(b *testing.B)  { benchFigure13(b, arch.GTX1080()) }

// --- Parallel evaluation sweep -------------------------------------------
//
// The same Figure-12 sweep (23 apps x 6 schemes with the throttle
// sweep) through eval's worker pool at increasing widths. The parallel
// runner guarantees byte-identical results to the serial path (see
// internal/eval/determinism_test.go), so the only question these
// benchmarks answer is wall-clock: on an N-core machine the sweep
// should approach NxSerial until the longest single app dominates.

func benchEvalSweep(b *testing.B, parallelism int) {
	b.Helper()
	ar := arch.TeslaK40()
	apps := workloads.Table2()
	for i := 0; i < b.N; i++ {
		if _, err := eval.EvaluateAll([]*arch.Arch{ar}, apps, eval.Options{Parallelism: parallelism}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalSweepSerial(b *testing.B)    { benchEvalSweep(b, 1) }
func BenchmarkEvalSweepParallel2(b *testing.B) { benchEvalSweep(b, 2) }
func BenchmarkEvalSweepParallel4(b *testing.B) { benchEvalSweep(b, 4) }
func BenchmarkEvalSweepParallel8(b *testing.B) { benchEvalSweep(b, 8) }

// --- Ablations (Section 5.2 design-choice discussions) -------------------

// BenchmarkAblationTileWiseMM reproduces observation (6): tile-wise
// indexing raises MM's hit rate but its index arithmetic costs the win
// back relative to plain Y-partitioning.
func BenchmarkAblationTileWiseMM(b *testing.B) {
	ar := arch.TeslaK40()
	app, err := workloads.New("MM")
	if err != nil {
		b.Fatal(err)
	}
	var yp, tile float64
	for i := 0; i < b.N; i++ {
		base, err := engine.Run(engine.DefaultConfig(ar), app)
		if err != nil {
			b.Fatal(err)
		}
		ky, err := core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: kernel.RowMajor})
		if err != nil {
			b.Fatal(err)
		}
		ry, err := engine.Run(engine.DefaultConfig(ar), ky)
		if err != nil {
			b.Fatal(err)
		}
		kt, err := core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: kernel.TileWise})
		if err != nil {
			b.Fatal(err)
		}
		rt, err := engine.Run(engine.DefaultConfig(ar), kt)
		if err != nil {
			b.Fatal(err)
		}
		yp = float64(base.Cycles) / float64(ry.Cycles)
		tile = float64(base.Cycles) / float64(rt.Cycles)
	}
	b.ReportMetric(yp, "speedup-YP")
	b.ReportMetric(tile, "speedup-tilewise")
}

// BenchmarkAblationRedirectionScheduler reproduces observation (1):
// redirection-based clustering depends on the strict-RR assumption — it
// works under a strict-RR scheduler and degrades under the realistic
// policies.
func BenchmarkAblationRedirectionScheduler(b *testing.B) {
	ar := arch.GTX570()
	app, err := workloads.New("NN")
	if err != nil {
		b.Fatal(err)
	}
	rd, err := core.Redirect(app, ar.SMs, app.Partition())
	if err != nil {
		b.Fatal(err)
	}
	run := func(pol arch.SchedulerPolicy, k kernel.Kernel) *engine.Result {
		cfg := engine.DefaultConfig(ar)
		cfg.UseArchDefault = false
		cfg.Scheduler = pol
		res, err := engine.Run(cfg, k)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var underRR, underRandom float64
	for i := 0; i < b.N; i++ {
		baseRR := run(arch.SchedStrictRR, app)
		baseRnd := run(arch.SchedRandom, app)
		underRR = float64(baseRR.Cycles) / float64(run(arch.SchedStrictRR, rd).Cycles)
		underRandom = float64(baseRnd.Cycles) / float64(run(arch.SchedRandom, rd).Cycles)
	}
	b.ReportMetric(underRR, "rd-speedup-strictRR")
	b.ReportMetric(underRandom, "rd-speedup-random")
}

// BenchmarkAblationThrottlingKMN sweeps the active-agent knob for the
// paper's headline throttling case (KMN, optimal = 1-3 agents).
func BenchmarkAblationThrottlingKMN(b *testing.B) {
	ar := arch.GTX570()
	app, err := workloads.New("KMN")
	if err != nil {
		b.Fatal(err)
	}
	best, bestAgents := 0.0, 0
	for i := 0; i < b.N; i++ {
		base, err := engine.Run(engine.DefaultConfig(ar), app)
		if err != nil {
			b.Fatal(err)
		}
		occ := ar.OccupancyFor(app.WarpsPerCTA(), app.RegsPerThread(ar.Gen), app.SharedMemPerCTA())
		best, bestAgents = 0, 0
		for a := 1; a <= occ.CTAsPerSM; a++ {
			k, err := core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: app.Partition(), ActiveAgents: a})
			if err != nil {
				b.Fatal(err)
			}
			r, err := engine.Run(engine.DefaultConfig(ar), k)
			if err != nil {
				b.Fatal(err)
			}
			if s := float64(base.Cycles) / float64(r.Cycles); s > best {
				best, bestAgents = s, a
			}
		}
	}
	b.ReportMetric(best, "best-speedup")
	b.ReportMetric(float64(bestAgents), "opt-agents")
}

// BenchmarkAblationL1SizeKepler exploits the Table 1 configurable L1:
// Kepler's 16/32/48KB carve-out, on the capacity-bound KMN. The metric
// is how much the 48KB configuration buys over the default 16KB, for
// the baseline and for the clustered kernel — quantifying the "small
// cache capacity" obstacle of Section 1.
func BenchmarkAblationL1SizeKepler(b *testing.B) {
	app, err := workloads.New("KMN")
	if err != nil {
		b.Fatal(err)
	}
	var base16, base48, clu16, clu48 int64
	for i := 0; i < b.N; i++ {
		for _, kb := range []int{16, 48} {
			ar := arch.TeslaK40()
			ar.L1Size = kb * arch.KB
			ar.SharedMem = (64 - kb) * arch.KB
			base, err := engine.Run(engine.DefaultConfig(ar), app)
			if err != nil {
				b.Fatal(err)
			}
			k, err := core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: app.Partition()})
			if err != nil {
				b.Fatal(err)
			}
			r, err := engine.Run(engine.DefaultConfig(ar), k)
			if err != nil {
				b.Fatal(err)
			}
			if kb == 16 {
				base16, clu16 = base.Cycles, r.Cycles
			} else {
				base48, clu48 = base.Cycles, r.Cycles
			}
		}
	}
	b.ReportMetric(float64(base16)/float64(base48), "bsl-gain-48KB-vs-16KB")
	b.ReportMetric(float64(clu16)/float64(clu48), "clu-gain-48KB-vs-16KB")
}

// --- Primitive micro-benchmarks ------------------------------------------

func BenchmarkPartitionMapInvert(b *testing.B) {
	p, err := core.NewPartition(4096, 16)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		w, c := p.Map(i % 4096)
		if p.Invert(w, c) != i%4096 {
			b.Fatal("round trip broken")
		}
	}
}

func BenchmarkSimulateMMKepler(b *testing.B) {
	ar := arch.TeslaK40()
	app, err := workloads.New("MM")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs() // the allocation-diet headline: ~13k allocs/run, down from 1.06M
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(engine.DefaultConfig(ar), app); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuantifyMM(b *testing.B) {
	app, err := workloads.New("MM")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		locality.Quantify(app, 32)
	}
}

func BenchmarkFrameworkAnalyzeHS(b *testing.B) {
	ar := arch.TeslaK40()
	app, err := workloads.New("HS")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := locality.Analyze(context.Background(), app, ar); err != nil {
			b.Fatal(err)
		}
	}
}
