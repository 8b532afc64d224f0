package engine_test

// The allocation budget table: the enforcement half of the hot-path
// allocation diet. Each cell pins the whole-run allocation count of a
// real workload on TeslaK40 — bare and profiled, monolithic and 2-die —
// to a budget 5% above the measured post-diet value. A change that
// reintroduces per-event allocations (queue boxing, per-access
// transaction slices, per-object warp/CTA allocation) blows these
// budgets by orders of magnitude, not percent, so the 5% headroom
// tolerates runtime noise without tolerating regressions.

import (
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/prof"
	"ctacluster/internal/workloads"
)

// allocBudgets is the table. Budgets are whole-run allocation counts
// (testing.AllocsPerRun averages over 2 runs); profiled rows include
// the Trace's own event-buffer growth, which amortized doubling keeps
// to a few dozen allocations. Measured values: MM 8472 bare / 8516
// profiled, SGM 3530 / 3561, MM 2-die 8202 (flat per-cache tag arrays:
// three allocations per cache instead of one per set).
var allocBudgets = []struct {
	app      string
	chiplets int // 0 = monolithic TeslaK40; N = WithChiplets variant
	profiled bool
	budget   float64
}{
	{"MM", 0, false, 8900},
	{"MM", 0, true, 8950},
	{"SGM", 0, false, 3710},
	{"SGM", 0, true, 3740},
	// The chiplet path: per-die slices replace the monolithic L2, and
	// everything else must stay on the diet — the slice array and link
	// table are setup-time allocations, not per-event ones.
	{"MM", 2, false, 8620},
}

func TestAllocationBudgets(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation counts are only meaningful uninstrumented")
	}
	for _, c := range allocBudgets {
		ar := arch.TeslaK40()
		name := c.app
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
			run := func() {
				cfg := engine.DefaultConfig(ar)
				if c.profiled {
					cfg.Profiler = prof.NewTrace(prof.TraceConfig{
						Kernel: c.app, Arch: ar.Name, SMs: ar.SMs,
						Events: prof.MaskAll, SampleInterval: 5000,
					})
				}
				if _, err := engine.Run(cfg, app); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(2, run)
			t.Logf("%s: %.0f allocs/run (budget %.0f)", name, got, c.budget)
			if got > c.budget {
				t.Errorf("%s allocates %.0f times per run, budget %.0f (+5%% over the post-diet measurement) — the allocation diet regressed",
					name, got, c.budget)
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
