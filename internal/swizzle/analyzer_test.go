package swizzle

import (
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/kernel"
	"ctacluster/internal/workloads"
)

// pairKernel: CTA u issues one 4-byte single-lane load on the line
// shared with its pair partner (u/2), so line sharing is exactly
// hand-computable: lines are disjoint across pairs, shared within one.
type pairKernel struct {
	n int
}

func (k *pairKernel) Name() string                      { return "pair" }
func (k *pairKernel) GridDim() kernel.Dim3              { return kernel.Dim1(k.n) }
func (k *pairKernel) BlockDim() kernel.Dim3             { return kernel.Dim1(32) }
func (k *pairKernel) WarpsPerCTA() int                  { return 1 }
func (k *pairKernel) RegsPerThread(arch.Generation) int { return 16 }
func (k *pairKernel) SharedMemPerCTA() int              { return 0 }
func (k *pairKernel) Work(l kernel.Launch) kernel.CTAWork {
	ws := l.WarpBufs(1)
	ws[0] = append(ws[0], kernel.Load(uint64((l.CTA/2)*64), 0, 1, 4))
	return kernel.CTAWork{Warps: ws}
}

// TestAnalyzeWindowGolden pins the analyzer's arithmetic on the
// hand-computable pair kernel: 8 CTAs, pairs (0,1)(2,3)(4,5)(6,7) each
// sharing one 64-byte-spaced line.
func TestAnalyzeWindowGolden(t *testing.T) {
	k := &pairKernel{n: 8}
	a := NewAnalyzer()
	cases := []struct {
		window int
		want   Quant
	}{
		// Window 2 aligns with the pairs: every second CTA cross-reuses.
		{2, Quant{LineBytes: 32, Window: 2, Windows: 4, Accesses: 8, Fetches: 4, SharedLines: 4, CrossReuses: 4}},
		// Window 1: no co-residency, no sharing.
		{1, Quant{LineBytes: 32, Window: 1, Windows: 8, Accesses: 8, Fetches: 8, SharedLines: 0, CrossReuses: 0}},
		// Whole grid in one window: same sharing as the aligned pairs.
		{8, Quant{LineBytes: 32, Window: 8, Windows: 1, Accesses: 8, Fetches: 4, SharedLines: 4, CrossReuses: 4}},
		// Window 4 covers two pairs at a time: same totals.
		{4, Quant{LineBytes: 32, Window: 4, Windows: 2, Accesses: 8, Fetches: 4, SharedLines: 4, CrossReuses: 4}},
	}
	for _, c := range cases {
		got := a.AnalyzeWindow(k, 32, c.window)
		if got != c.want {
			t.Errorf("window %d: got %+v, want %+v", c.window, got, c.want)
		}
	}
}

// TestAnalyzeWindowMisalignedWindow: a window that straddles pairs
// (width 3 on pairs of 2) splits some sharers into different windows,
// losing exactly their reuse — the effect a swizzle would repair.
func TestAnalyzeWindowMisalignedWindow(t *testing.T) {
	k := &pairKernel{n: 8}
	a := NewAnalyzer()
	got := a.AnalyzeWindow(k, 32, 3)
	// Windows: {0,1,2} {3,4,5} {6,7}: pairs (0,1), (4,5) and (6,7)
	// stay co-resident, (2,3) is split and pays a second fetch.
	want := Quant{LineBytes: 32, Window: 3, Windows: 3, Accesses: 8, Fetches: 5, SharedLines: 3, CrossReuses: 3}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

// TestAnalyzerDefaults: non-positive lineBytes falls back to the
// 32-byte L2 sector, non-positive windows clamp to one CTA.
func TestAnalyzerDefaults(t *testing.T) {
	k := &pairKernel{n: 4}
	a := NewAnalyzer()
	got := a.AnalyzeWindow(k, 0, 0)
	if got.LineBytes != kernel.DefaultLineBytes || got.Window != 1 {
		t.Errorf("defaults: LineBytes=%d Window=%d, want %d and 1", got.LineBytes, got.Window, kernel.DefaultLineBytes)
	}
}

// TestAnalyzerNonPowerOfTwoLine: any positive granularity is a valid
// bucketing (floor-aligned segments), documented rather than rejected.
func TestAnalyzerNonPowerOfTwoLine(t *testing.T) {
	k := &pairKernel{n: 2}
	a := NewAnalyzer()
	got := a.AnalyzeWindow(k, 48, 2)
	// Both CTAs load 4 bytes at address 0 → one 48-byte segment at 0.
	want := Quant{LineBytes: 48, Window: 2, Windows: 1, Accesses: 2, Fetches: 1, SharedLines: 1, CrossReuses: 1}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

// storeKernel only writes; the analyzer counts read lines.
type storeKernel struct{ pairKernel }

func (k *storeKernel) Work(l kernel.Launch) kernel.CTAWork {
	ws := l.WarpBufs(1)
	ws[0] = append(ws[0], kernel.Store(uint64((l.CTA/2)*64), 0, 1, 4))
	return kernel.CTAWork{Warps: ws}
}

func TestAnalyzerIgnoresWrites(t *testing.T) {
	k := &storeKernel{pairKernel{n: 4}}
	a := NewAnalyzer()
	got := a.AnalyzeWindow(k, 32, 4)
	if got.Accesses != 0 || got.Fetches != 0 {
		t.Errorf("writes counted as reads: %+v", got)
	}
}

// TestAnalyzerStateReset: a reused Analyzer produces exactly what a
// fresh one does — no state leaks between analyses.
func TestAnalyzerStateReset(t *testing.T) {
	big := &pairKernel{n: 64}
	small := &pairKernel{n: 4}
	warm := NewAnalyzer()
	warm.AnalyzeWindow(big, 32, 8)
	got := warm.AnalyzeWindow(small, 32, 2)
	want := NewAnalyzer().AnalyzeWindow(small, 32, 2)
	if got != want {
		t.Errorf("reused analyzer: %+v, fresh: %+v", got, want)
	}
}

// TestAnalyzeDerivesWindowFromOccupancy: Analyze must use the
// occupancy-derived co-residency width (CTAs/SM × SMs) and the arch's
// L2 line size.
func TestAnalyzeDerivesWindowFromOccupancy(t *testing.T) {
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	ar := arch.TeslaK40()
	occ := ar.OccupancyFor(app.WarpsPerCTA(), app.RegsPerThread(ar.Gen), app.SharedMemPerCTA())
	got := NewAnalyzer().Analyze(app, ar)
	if got.Window != occ.CTAsPerSM*ar.SMs {
		t.Errorf("window = %d, want CTAsPerSM(%d) × SMs(%d)", got.Window, occ.CTAsPerSM, ar.SMs)
	}
	if got.LineBytes != ar.L2Line {
		t.Errorf("lineBytes = %d, want arch L2 line %d", got.LineBytes, ar.L2Line)
	}
}

// TestInsensitiveAppKeepsIdentity is the over-recommendation
// regression. These apps dispatch 1-D grids, where every registered
// remap degenerates to the row-major order: all four variants produce
// identical quants, the analyzer has no signal, and the only defensible
// pick is the free unswizzled baseline. The pre-fix ranking (minimum
// raw fetches, first-wins tie-break over sorted names) handed every one
// of these cells a bogus "groupcol" recommendation — a remap that costs
// index-recomputation cycles and buys nothing.
func TestInsensitiveAppKeepsIdentity(t *testing.T) {
	ar := arch.TeslaK40()
	a := NewAnalyzer()
	for _, name := range []string{"BFS", "BS", "KMN", "NW"} {
		app, err := workloads.New(name)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := a.PredictBest(app, ar)
		if err != nil {
			t.Fatal(err)
		}
		// Guard the premise: every variant scores identically here. If a
		// future remap starts acting on 1-D grids this test must be
		// rethought, not silently passed.
		for _, s := range pred.Scores {
			if s.Quant != pred.Scores[0].Quant {
				t.Fatalf("%s: variant %s scores %+v, others %+v — no longer swizzle-insensitive",
					name, s.Swizzle, s.Quant, pred.Scores[0].Quant)
			}
		}
		if pred.Best != Identity {
			t.Errorf("%s: predicted best = %q on an all-tied prediction, want %q", name, pred.Best, Identity)
		}
	}
}

// TestTieGoesToIdentitySynthetic pins the tie-break on the
// hand-computable pair kernel: its 1-D grid ties all variants exactly,
// and the incumbent must win regardless of where "identity" sorts
// among the candidate names.
func TestTieGoesToIdentitySynthetic(t *testing.T) {
	pred, err := NewAnalyzer().PredictBest(&pairKernel{n: 8}, arch.TeslaK40())
	if err != nil {
		t.Fatal(err)
	}
	if pred.Best != Identity {
		t.Errorf("predicted best = %q, want %q on an all-tied kernel", pred.Best, Identity)
	}
}

// TestMMSwizzleOrdering is the real-workload golden: on MM (tiled GEMM,
// the canonical swizzle target) every locality-improving swizzle must
// beat the row-major identity on window-compulsory fetches, and the
// analysis must be deterministic call over call.
func TestMMSwizzleOrdering(t *testing.T) {
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	ar := arch.TeslaK40()
	a := NewAnalyzer()
	pred, err := a.PredictBest(app, ar)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Scores) != len(Names()) {
		t.Fatalf("%d scores, want one per variant", len(pred.Scores))
	}
	byName := map[string]Quant{}
	for i, s := range pred.Scores {
		if s.Swizzle != Names()[i] {
			t.Fatalf("scores out of Names() order: %v", pred.Scores)
		}
		byName[s.Swizzle] = s.Quant
	}
	id := byName["identity"]
	for _, name := range []string{"groupcol", "hilbert"} {
		if byName[name].Fetches >= id.Fetches {
			t.Errorf("%s fetches %d, want < identity's %d on MM", name, byName[name].Fetches, id.Fetches)
		}
	}
	if pred.Best == "identity" {
		t.Errorf("predicted best = identity; a locality swizzle should win on MM")
	}
	// Accesses are swizzle-invariant (pure remap, conservation).
	for name, q := range byName {
		if q.Accesses != id.Accesses {
			t.Errorf("%s accesses %d differ from identity's %d — remap changed the work", name, q.Accesses, id.Accesses)
		}
	}
	again, err := NewAnalyzer().PredictBest(app, ar)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pred, again) {
		t.Error("PredictBest is not deterministic")
	}
}

// TestAnalyzerDrainsAgentKernels hands the analyzer an agent-clustered
// kernel, whose Work returns the first task and the rest through a
// continuation. With one active agent per SM and static binding, every
// placement-free launch is agent 0 of SM 0 and runs its whole cluster:
// tagKernel's 128-byte load is four 32-byte segments per task.
func TestAnalyzerDrainsAgentKernels(t *testing.T) {
	k := &tagKernel{grid: kernel.Dim2(8, 8), warps: 1}
	ag, err := core.NewAgent(k, core.AgentConfig{Arch: arch.GTX570(), Indexing: kernel.RowMajor, ActiveAgents: 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks := len(ag.Tasks(0, 0))
	if tasks < 2 {
		t.Fatalf("agent 0 of SM 0 has %d tasks; the test needs several", tasks)
	}
	q := NewAnalyzer().AnalyzeWindow(ag, 32, 1)
	if want := uint64(ag.GridDim().Count() * tasks * 4); q.Accesses != want {
		t.Errorf("analyzer counted %d accesses over %d agents, want %d (%d tasks each)", q.Accesses, ag.GridDim().Count(), want, tasks)
	}
}
