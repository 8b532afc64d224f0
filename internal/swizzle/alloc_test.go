package swizzle

// The analyzer's half of the repo's allocation diet (DESIGN.md §11):
// a warm Analyzer walking a trace-static kernel allocates nothing, and
// whole-analysis counts on real workloads are pinned to a budget table
// the same way internal/engine's alloc_ext_test.go pins engine runs.
// `make bench-alloc` runs both, uninstrumented (race builds change
// allocation counts).

import (
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
	"ctacluster/internal/workloads"
)

// staticKernel returns prebuilt traces: Work performs no allocation,
// so any allocations measured around it belong to the analyzer. It
// ignores Launch.Buf and returns storage it keeps, which breaks the
// Work contract; only the analyzer, which passes a nil Buf and never
// hands traces back, may run it.
type staticKernel struct {
	n     int
	works []kernel.CTAWork
}

func newStaticKernel(n int) *staticKernel {
	k := &staticKernel{n: n, works: make([]kernel.CTAWork, n)}
	for u := range k.works {
		k.works[u] = kernel.CTAWork{Warps: [][]kernel.Op{{
			kernel.Load(uint64((u/2)*64), 4, 32, 4),
			kernel.Load(uint64(0x100000+u*128), 4, 32, 4),
		}}}
	}
	return k
}

func (k *staticKernel) Name() string                        { return "static" }
func (k *staticKernel) GridDim() kernel.Dim3                { return kernel.Dim1(k.n) }
func (k *staticKernel) BlockDim() kernel.Dim3               { return kernel.Dim1(32) }
func (k *staticKernel) WarpsPerCTA() int                    { return 1 }
func (k *staticKernel) RegsPerThread(arch.Generation) int   { return 16 }
func (k *staticKernel) SharedMemPerCTA() int                { return 0 }
func (k *staticKernel) Work(l kernel.Launch) kernel.CTAWork { return k.works[l.CTA] }

// TestAnalyzerZeroAlloc is the zero-alloc contract: after one warm-up
// pass (map buckets and coalescing scratch grow once), AnalyzeWindow
// on a trace-static kernel performs zero allocations per run.
func TestAnalyzerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only meaningful uninstrumented")
	}
	k := newStaticKernel(256)
	a := NewAnalyzer()
	a.AnalyzeWindow(k, 32, 16) // warm up scratch and map buckets
	got := testing.AllocsPerRun(10, func() {
		a.AnalyzeWindow(k, 32, 16)
	})
	if got != 0 {
		t.Errorf("warm AnalyzeWindow allocates %.0f times per run, want 0", got)
	}
}

// analyzerBudgets pins whole-analysis allocation counts on real
// workloads (dominated by the kernel's own Work trace generation) to
// 5% above the measured value, exactly like internal/engine's table.
var analyzerBudgets = []struct {
	app    string
	budget float64
}{
	{"MM", 4990},
	{"SGM", 1008},
}

func TestAnalyzerAllocationBudgets(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation counts are only meaningful uninstrumented")
	}
	ar := arch.TeslaK40()
	for _, c := range analyzerBudgets {
		t.Run(c.app, func(t *testing.T) {
			app, err := workloads.New(c.app)
			if err != nil {
				t.Fatal(err)
			}
			a := NewAnalyzer()
			a.Analyze(app, ar) // warm up
			got := testing.AllocsPerRun(2, func() {
				a.Analyze(app, ar)
			})
			t.Logf("%s: %.0f allocs/analysis (budget %.0f)", c.app, got, c.budget)
			if got > c.budget {
				t.Errorf("%s analysis allocates %.0f times, budget %.0f (+5%% over the measurement)", c.app, got, c.budget)
			}
		})
	}
}
