package engine_test

// The allocation budget table: the enforcement half of the hot-path
// allocation diet. Each cell pins the whole-run allocation count (and,
// on the bare rows, bytes) of a real workload on TeslaK40 — bare and
// profiled, plain and clustered, monolithic and 2-die — to a budget 5%
// above the measured post-diet value. A change that
// reintroduces per-event allocations (queue boxing, per-access
// transaction slices, per-object warp/CTA allocation) blows these
// budgets by orders of magnitude, not percent, so the 5% headroom
// tolerates runtime noise without tolerating regressions.

import (
	"runtime"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/prof"
	"ctacluster/internal/workloads"
)

// allocBudgets is the table. Budgets are whole-run allocation counts
// and, where mb is set, whole-run bytes (averaged over 2 runs after a
// warm-up run); profiled rows include the Trace's own event-buffer
// growth, which amortized doubling keeps to a few dozen allocations.
// The byte budgets guard trace recycling and the 32-byte op: a
// transform that goes back to copying traces or materializing the
// agent's whole task loop at dispatch, an engine that stops recycling
// its per-slot buffers, or a fatter kernel.Op multiplies the CLU or BSL
// bytes; TestAllocationBudgets also holds each CLU row to cluBSLRatio
// times its BSL row's bytes.
// Measured values: MM 2356 allocs / 7.23 MB bare, 2399 profiled, MM+CLU
// 3606 / 6.72 MB, KMN 1644 / 3.58 MB, KMN+CLU 3985 / 3.91 MB, S2K 1416
// / 3.58 MB, S2K+CLU 3170 / 2.96 MB, SGM 1754 / 2.05 MB bare, 1785
// profiled, MM 2-die 2354 / 6.86 MB (per-slot trace buffers: one trace
// allocation per warp of every CTA slot instead of per warp of every
// CTA; agents emit one task at a time into them; one pooled node slab
// for the event queue instead of a growing slice per bucket).
var allocBudgets = []struct {
	app      string
	clu      bool // run the agent-based clustering transform of app
	chiplets int  // 0 = monolithic TeslaK40; N = WithChiplets variant
	profiled bool
	budget   float64 // allocations per run
	mb       float64 // MB allocated per run; 0 = not pinned
}{
	{app: "MM", budget: 2470, mb: 7.59},
	{app: "MM", profiled: true, budget: 2516},
	{app: "MM", clu: true, budget: 3787, mb: 7.06},
	{app: "KMN", budget: 1727, mb: 3.77},
	{app: "KMN", clu: true, budget: 4185, mb: 4.11},
	{app: "S2K", budget: 1487, mb: 3.77},
	{app: "S2K", clu: true, budget: 3329, mb: 3.11},
	{app: "SGM", budget: 1839, mb: 2.15},
	{app: "SGM", profiled: true, budget: 1871},
	// The chiplet path: per-die slices replace the monolithic L2, and
	// everything else must stay on the diet — the slice array and link
	// table are setup-time allocations, not per-event ones.
	{app: "MM", chiplets: 2, budget: 2471, mb: 7.20},
}

// cluBSLRatio bounds a bare monolithic CLU row's bytes by those of the
// BSL row listed before it: an agent holds about one task's trace at a
// time in its slot's buffer, so clustering must not multiply the bytes
// a run allocates.
const cluBSLRatio = 1.2

// perRun returns the allocations and bytes one call of f makes, averaged
// over runs calls after a warm-up call, measured like testing.AllocsPerRun
// (one P, so no other goroutine's allocations are counted).
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func TestAllocationBudgets(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation counts are only meaningful uninstrumented")
	}
	bslMB := map[string]float64{} // app -> bare monolithic BSL MB, from the rows before its CLU row
	for _, c := range allocBudgets {
		ar := arch.TeslaK40()
		name := c.app
		if c.clu {
			name += "+CLU"
		}
		if c.chiplets > 0 {
			var err error
			if ar, err = arch.WithChiplets(ar, c.chiplets); err != nil {
				t.Fatal(err)
			}
			name += "/2die"
		}
		name += "/serial"
		if c.profiled {
			name += "/profiled"
		} else {
			name += "/bare"
		}
		t.Run(name, func(t *testing.T) {
			app, err := workloads.New(c.app)
			if err != nil {
				t.Fatal(err)
			}
			var k kernel.Kernel = app
			if c.clu {
				if k, err = core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: app.Partition()}); err != nil {
					t.Fatal(err)
				}
			}
			run := func() {
				cfg := engine.DefaultConfig(ar)
				if c.profiled {
					cfg.Profiler = prof.NewTrace(prof.TraceConfig{
						Kernel: c.app, Arch: ar.Name, SMs: ar.SMs,
						Events: prof.MaskAll, SampleInterval: 5000,
					})
				}
				if _, err := engine.Run(cfg, k); err != nil {
					t.Fatal(err)
				}
			}
			allocs, bytes := perRun(2, run)
			mb := bytes / (1 << 20)
			t.Logf("%s: %.0f allocs/run (budget %.0f), %.2f MB/run", name, allocs, c.budget, mb)
			if allocs > c.budget {
				t.Errorf("%s allocates %.0f times per run, budget %.0f (+5%% over the measurement) — the allocation diet regressed",
					name, allocs, c.budget)
			}
			if c.mb > 0 && mb > c.mb {
				t.Errorf("%s allocates %.2f MB per run, budget %.2f MB (+5%% over the measurement) — trace recycling regressed",
					name, mb, c.mb)
			}
			if c.chiplets > 0 || c.profiled {
				return
			}
			if !c.clu {
				bslMB[c.app] = mb
			} else if bsl, ok := bslMB[c.app]; ok && mb > cluBSLRatio*bsl {
				t.Errorf("%s allocates %.2f MB per run, more than %.1f× BSL's %.2f MB", name, mb, cluBSLRatio, bsl)
			}
		})
	}
}

// BenchmarkRun measures one serial MM/TeslaK40 run — the headline
// engine benchmark behind the allocation-budget table. Run with
// `make bench-alloc` (or `go test -bench '^BenchmarkRun$' ./internal/engine`).
func BenchmarkRun(b *testing.B) {
	app, err := workloads.New("MM")
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.DefaultConfig(arch.TeslaK40())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(cfg, app); err != nil {
			b.Fatal(err)
		}
	}
}
