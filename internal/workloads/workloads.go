// Package workloads implements the GPU applications of the paper's
// evaluation (Table 2) — plus the additional Figure-3 applications and
// the Listing-3 microbenchmark — as deterministic per-CTA memory-trace
// generators. Each application reproduces the grid/block geometry,
// per-generation register cost, shared-memory cost and, most
// importantly, the global-memory access structure that gives it its
// inter-CTA locality category (Section 3.2).
package workloads

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
	"ctacluster/internal/locality"
)

// Regs is the per-generation register cost of one thread (the Table 2
// "Registers" column: Fermi/Kepler/Maxwell/Pascal).
type Regs [4]int

// App is a concrete workload: a kernel.Kernel with the metadata the
// framework and the evaluation harness need.
type App struct {
	name     string
	longName string
	grid     kernel.Dim3
	block    kernel.Dim3
	regs     Regs
	smem     int
	cat      locality.Category
	// alsoWrite marks the Table 2 "Data&Writing" hybrid (BFS).
	alsoWrite bool
	// partition is the Table 2 ground-truth partition direction.
	partition kernel.Indexing
	// optAgents is the Table 2 "Opt Agents" column (per generation).
	optAgents Regs
	refs      []kernel.ArrayRef
	gen       func(l kernel.Launch) kernel.CTAWork
}

// Name returns the Table 2 abbreviation (MM, KMN, ...).
func (a *App) Name() string { return a.name }

// LongName returns the full benchmark name.
func (a *App) LongName() string { return a.longName }

// GridDim returns the launch grid.
func (a *App) GridDim() kernel.Dim3 { return a.grid }

// BlockDim returns the CTA shape.
func (a *App) BlockDim() kernel.Dim3 { return a.block }

// WarpsPerCTA returns the Table 2 "WP" value.
func (a *App) WarpsPerCTA() int { return kernel.WarpCount(a.block) }

// RegsPerThread returns the per-generation register cost.
func (a *App) RegsPerThread(g arch.Generation) int { return a.regs[int(g)] }

// SharedMemPerCTA returns the static shared-memory cost.
func (a *App) SharedMemPerCTA() int { return a.smem }

// Category returns the ground-truth locality category of Table 2.
func (a *App) Category() locality.Category { return a.cat }

// WriteRelated reports the Table 2 "&Writing" flag (BFS).
func (a *App) WriteRelated() bool { return a.alsoWrite || a.cat == locality.Write }

// Partition returns the Table 2 partition direction.
func (a *App) Partition() kernel.Indexing { return a.partition }

// OptAgents returns the Table 2 optimal-throttling agents per SM for a
// generation.
func (a *App) OptAgents(g arch.Generation) int { return a.optAgents[int(g)] }

// ArrayRefs exposes the reference structure for the dependence analysis.
func (a *App) ArrayRefs() []kernel.ArrayRef { return a.refs }

// Work generates the CTA's trace.
func (a *App) Work(l kernel.Launch) kernel.CTAWork { return a.gen(l) }

// lcg is a tiny deterministic PRNG for irregular access patterns; the
// same (seed) always yields the same stream, keeping traces reproducible
// across Work invocations.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 17)
}

func (r *lcg) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Registry

// registry maps app names to constructors. It is written exclusively by
// register() during package init and is read-only afterwards, which is
// what makes New and Names safe to call from concurrent evaluation
// workers (internal/eval/parallel.go) without locking. The registryRead
// flag seals the map at its first lookup: a registration arriving after
// that — which could race with concurrent readers — panics loudly
// instead of corrupting the map silently.
var (
	registry     = map[string]func() *App{}
	registryRead atomic.Bool
)

func register(name string, f func() *App) {
	if registryRead.Load() {
		panic(fmt.Sprintf("workloads: register(%s) after first lookup — the registry is read-only once readers exist", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("workloads: duplicate app %s", name))
	}
	registry[name] = f
}

// New instantiates a registered application at its default scale. Each
// call returns a fresh *App; the App's trace generator is a pure
// function of the launch context, so a single *App may also be shared
// by concurrent simulations.
func New(name string) (*App, error) {
	registryRead.Store(true)
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown application %q", name)
	}
	return f(), nil
}

// Names returns every registered application name, sorted.
func Names() []string {
	registryRead.Store(true)
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// table2Order is the paper's Table 2 row order.
var table2Order = []string{
	"KMN", "MM", "NN", "IMD", "BKP", "DCT", "SGM", "HS",
	"SYK", "S2K", "ATX", "MVT", "NBO", "3CV", "BC", "COR",
	"HST", "BTR", "NW", "BFS",
	"MON", "DXT", "SAD", "BS",
}

// Table2 instantiates the evaluated applications in paper order: the
// paper's 23 plus COR, promoted from the Figure-3-only set with full
// Table 2 characteristics (correlation.go).
func Table2() []*App {
	out := make([]*App, 0, len(table2Order))
	for _, n := range table2Order {
		a, err := New(n)
		if err != nil {
			panic(err)
		}
		out = append(out, a)
	}
	return out
}

// figure3Extra is the set of Figure-3-only applications.
var figure3Extra = []string{
	"LUD", "FWT", "PFD", "STD", "MRI", "SRD", "LIB",
	"SR2", "NE", "SP", "BNO", "SLA", "FTD", "LPS", "GES", "HRT",
}

// Figure3 instantiates the full Figure 3 application set: the 24
// Table 2 apps plus the 16 quantification-only apps, 40 in all.
func Figure3() []*App {
	out := Table2()
	for _, n := range figure3Extra {
		a, err := New(n)
		if err != nil {
			panic(err)
		}
		out = append(out, a)
	}
	return out
}
