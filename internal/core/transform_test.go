package core

import (
	"testing"
	"testing/quick"

	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
)

// gridKernel is a trivial 2D kernel whose CTAs each emit one tagged load
// so the tests can see exactly which original CTA ran where.
type gridKernel struct {
	grid  kernel.Dim3
	warps int
}

func (k *gridKernel) Name() string                      { return "grid" }
func (k *gridKernel) GridDim() kernel.Dim3              { return k.grid }
func (k *gridKernel) BlockDim() kernel.Dim3             { return kernel.Dim1(k.warps * 32) }
func (k *gridKernel) WarpsPerCTA() int                  { return k.warps }
func (k *gridKernel) RegsPerThread(arch.Generation) int { return 16 }
func (k *gridKernel) SharedMemPerCTA() int              { return 0 }
func (k *gridKernel) Work(l kernel.Launch) kernel.CTAWork {
	ws := l.WarpBufs(k.warps)
	for w := range ws {
		ws[w] = append(ws[w],
			// Tag the trace with the CTA id via the address.
			kernel.Load(uint64(0x10000+l.CTA*256), 4, 32, 4),
			kernel.Compute(4),
			kernel.Load(uint64(0x80000), 4, 32, 4).StreamingHint(),
			kernel.Store(uint64(0x100000+l.CTA*256), 4, 32, 4),
		)
	}
	return kernel.CTAWork{Warps: ws}
}

// tagOf recovers the original CTA id from a transformed trace.
func tagOf(ops []kernel.Op) int {
	for _, op := range ops {
		if op.Kind == kernel.OpMem && !op.Mem.Write && op.Mem.Base >= 0x10000 && op.Mem.Base < 0x80000 {
			return int(op.Mem.Base-0x10000) / 256
		}
	}
	return -1
}

func tagsOf(ops []kernel.Op) []int {
	var out []int
	for _, op := range ops {
		if op.Kind == kernel.OpMem && !op.Mem.Write && op.Mem.Base >= 0x10000 && op.Mem.Base < 0x80000 {
			out = append(out, int(op.Mem.Base-0x10000)/256)
		}
	}
	return out
}

func TestRedirectCoversAllCTAsProperty(t *testing.T) {
	f := func(nxRaw, nyRaw, smRaw uint8) bool {
		nx := int(nxRaw)%12 + 1
		ny := int(nyRaw)%12 + 1
		sms := int(smRaw)%20 + 1
		k := &gridKernel{grid: kernel.Dim2(nx, ny), warps: 1}
		for _, ix := range []kernel.Indexing{kernel.RowMajor, kernel.ColMajor, kernel.TileWise} {
			rd, err := Redirect(k, sms, ix)
			if err != nil {
				return false
			}
			seen := make([]bool, nx*ny)
			for u := 0; u < nx*ny; u++ {
				v := rd.Target(u)
				if v < 0 || v >= nx*ny || seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRedirectWorkRedirects(t *testing.T) {
	k := &gridKernel{grid: kernel.Dim2(4, 3), warps: 2}
	rd, err := Redirect(k, 5, kernel.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 12; u++ {
		work := rd.Work(kernel.Launch{CTA: u})
		if len(work.Warps) != 2 {
			t.Fatalf("warp count changed: %d", len(work.Warps))
		}
		if got := tagOf(work.Warps[0]); got != rd.Target(u) {
			t.Errorf("CTA %d executed original %d, want %d", u, got, rd.Target(u))
		}
		// The remapping cost is prepended.
		if work.Warps[0][0].Kind != kernel.OpCompute {
			t.Error("missing index-recomputation op")
		}
	}
	// Shape metadata is preserved.
	if rd.GridDim() != k.GridDim() || rd.WarpsPerCTA() != 2 || rd.Name() != "grid+RD" {
		t.Error("redirect metadata wrong")
	}
}

func TestRedirectRejectsArbitrary(t *testing.T) {
	k := &gridKernel{grid: kernel.Dim2(4, 3), warps: 1}
	if _, err := Redirect(k, 4, kernel.Arbitrary); err == nil {
		t.Error("redirection with arbitrary indexing should fail")
	}
}

// TestRemap3DGridCoversEveryCTA: on a grid with Z > 1, redirection and
// agent clustering each run every original CTA exactly once in every
// indexing order. Walking (X, Y) only, col-major left 8 of 24 CTAs
// unrun and tile-wise panicked.
func TestRemap3DGridCoversEveryCTA(t *testing.T) {
	k := &gridKernel{grid: kernel.Dim3{X: 4, Y: 3, Z: 2}, warps: 1}
	const total = 24
	isPerm := func(ids []int) bool {
		seen := make([]bool, total)
		for _, v := range ids {
			if v < 0 || v >= total || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(ids) == total
	}
	ar := arch.GTX570()
	for _, ix := range []kernel.Indexing{kernel.RowMajor, kernel.ColMajor, kernel.TileWise} {
		rd, err := Redirect(k, ar.SMs, ix)
		if err != nil {
			t.Fatal(err)
		}
		var targets []int
		for u := 0; u < total; u++ {
			targets = append(targets, rd.Target(u))
		}
		if !isPerm(targets) {
			t.Errorf("%v: redirect targets %v are not a permutation of 0..%d", ix, targets, total-1)
		}
		ag, err := NewAgent(k, AgentConfig{Arch: ar, Indexing: ix})
		if err != nil {
			t.Fatal(err)
		}
		var tasks []int
		for sm := 0; sm < ar.SMs; sm++ {
			for a := 0; a < ag.ActiveAgents(); a++ {
				tasks = append(tasks, ag.Tasks(sm, a)...)
			}
		}
		if !isPerm(tasks) {
			t.Errorf("%v: agent tasks %v are not a permutation of 0..%d", ix, tasks, total-1)
		}
	}
}

func TestAgentTasksPartitionExactly(t *testing.T) {
	k := &gridKernel{grid: kernel.Dim2(9, 7), warps: 2}
	for _, arc := range []*arch.Arch{arch.GTX570(), arch.GTX980()} {
		for _, ix := range []kernel.Indexing{kernel.RowMajor, kernel.ColMajor, kernel.TileWise} {
			for _, active := range []int{0, 1, 3} {
				ag, err := NewAgent(k, AgentConfig{Arch: arc, Indexing: ix, ActiveAgents: active})
				if err != nil {
					t.Fatal(err)
				}
				seen := map[int]int{}
				for sm := 0; sm < arc.SMs; sm++ {
					for a := 0; a < ag.ActiveAgents(); a++ {
						for _, v := range ag.Tasks(sm, a) {
							seen[v]++
						}
					}
				}
				if len(seen) != 63 {
					t.Fatalf("%s/%v/%d: tasks cover %d of 63 CTAs", arc.Name, ix, active, len(seen))
				}
				for v, n := range seen {
					if n != 1 {
						t.Fatalf("CTA %d executed %d times", v, n)
					}
				}
			}
		}
	}
}

func TestAgentWorkExecutesItsTasks(t *testing.T) {
	k := &gridKernel{grid: kernel.Dim2(6, 4), warps: 2}
	ar := arch.GTX570() // static binding: agent id = slot
	ag, err := NewAgent(k, AgentConfig{Arch: ar, Indexing: kernel.RowMajor})
	if err != nil {
		t.Fatal(err)
	}
	work := kernel.Drain(ag.Work(kernel.Launch{CTA: 0, SM: 3, Slot: 1}))
	want := ag.Tasks(3, 1)
	got := tagsOf(work.Warps[0])
	if len(got) != len(want) {
		t.Fatalf("agent executed %d tasks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("task %d: got CTA %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAgentThrottlingSkips(t *testing.T) {
	k := &gridKernel{grid: kernel.Dim2(8, 8), warps: 1}
	ar := arch.GTX570()
	ag, err := NewAgent(k, AgentConfig{Arch: ar, Indexing: kernel.RowMajor, ActiveAgents: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ag.ActiveAgents() != 2 {
		t.Fatalf("active agents = %d", ag.ActiveAgents())
	}
	// Agents in slots >= 2 must retire immediately.
	if w := ag.Work(kernel.Launch{SM: 0, Slot: 5}); !w.Skip {
		t.Error("throttled agent should skip")
	}
	if w := ag.Work(kernel.Launch{SM: 0, Slot: 1}); w.Skip {
		t.Error("active agent should not skip")
	}
}

func TestAgentDynamicBindingOps(t *testing.T) {
	k := &gridKernel{grid: kernel.Dim2(8, 8), warps: 2}
	ar := arch.GTX980() // dynamic binding: atomic + barrier
	ag, err := NewAgent(k, AgentConfig{Arch: ar, Indexing: kernel.RowMajor})
	if err != nil {
		t.Fatal(err)
	}
	work := ag.Work(kernel.Launch{SM: 2, Slot: 0})
	// Warp 0 carries the atomic bid; all warps carry the barrier.
	foundAtomic := false
	for _, op := range work.Warps[0] {
		if op.Kind == kernel.OpAtomic {
			foundAtomic = true
		}
	}
	if !foundAtomic {
		t.Error("dynamic binding should issue a global atomic")
	}
	if work.Warps[1][0].Kind != kernel.OpBarrier {
		t.Error("secondary warps should wait at the broadcast barrier")
	}
	// The per-SM counter advances: a second launch on the same SM gets
	// the next agent id; Reset must rewind it.
	ag.Reset()
	first := tagsOf(ag.Work(kernel.Launch{SM: 0}).Warps[0])
	second := tagsOf(ag.Work(kernel.Launch{SM: 0}).Warps[0])
	if len(first) == 0 || len(second) == 0 || first[0] == second[0] {
		t.Error("successive agents on one SM should take interleaved tasks")
	}
	ag.Reset()
	again := tagsOf(ag.Work(kernel.Launch{SM: 0}).Warps[0])
	if len(again) == 0 || again[0] != first[0] {
		t.Error("Reset should rewind the agent counters")
	}
}

func TestAgentBypassRewritesStreamingOps(t *testing.T) {
	k := &gridKernel{grid: kernel.Dim2(4, 4), warps: 1}
	ar := arch.GTX570()
	ag, err := NewAgent(k, AgentConfig{Arch: ar, Indexing: kernel.RowMajor, Bypass: true})
	if err != nil {
		t.Fatal(err)
	}
	work := kernel.Drain(ag.Work(kernel.Launch{SM: 0, Slot: 0}))
	var streaming, bypassed int
	for _, op := range work.Warps[0] {
		if op.Kind == kernel.OpMem && op.Mem.Streaming {
			streaming++
			if op.Mem.Bypass {
				bypassed++
			}
		}
	}
	if streaming == 0 || bypassed != streaming {
		t.Errorf("bypass rewrote %d of %d streaming ops", bypassed, streaming)
	}
}

func TestAgentPrefetchAddsPrefetchOps(t *testing.T) {
	k := &gridKernel{grid: kernel.Dim2(8, 8), warps: 1}
	ar := arch.GTX570()
	ag, err := NewAgent(k, AgentConfig{Arch: ar, Indexing: kernel.RowMajor, ActiveAgents: 1, Prefetch: true, PrefetchDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	work := kernel.Drain(ag.Work(kernel.Launch{SM: 0, Slot: 0}))
	prefetches := 0
	for _, op := range work.Warps[0] {
		if op.Kind == kernel.OpMem && op.Mem.Prefetch {
			prefetches++
		}
	}
	tasks := len(ag.Tasks(0, 0))
	if prefetches != (tasks-1)*2 {
		t.Errorf("prefetch ops = %d, want %d ((tasks-1) * depth)", prefetches, (tasks-1)*2)
	}
}

func TestAgentGridAndName(t *testing.T) {
	k := &gridKernel{grid: kernel.Dim2(8, 8), warps: 2}
	ar := arch.TeslaK40()
	ag, _ := NewAgent(k, AgentConfig{Arch: ar, Indexing: kernel.ColMajor})
	if ag.GridDim().Count() != ar.SMs*ag.MaxAgents() {
		t.Errorf("grid = %v, want SMs*MAX_AGENTS", ag.GridDim())
	}
	if ag.Name() != "grid+CLU" {
		t.Errorf("name = %s", ag.Name())
	}
	th, _ := NewAgent(k, AgentConfig{Arch: ar, Indexing: kernel.ColMajor, ActiveAgents: 1, Bypass: true, Prefetch: true})
	if th.Name() != "grid+CLU+TOT+BPS+PFH" {
		t.Errorf("name = %s", th.Name())
	}
}

func TestAgentErrors(t *testing.T) {
	k := &gridKernel{grid: kernel.Dim2(4, 4), warps: 1}
	if _, err := NewAgent(k, AgentConfig{}); err == nil {
		t.Error("missing arch should fail")
	}
	if _, err := NewAgent(k, AgentConfig{Arch: arch.GTX570(), Indexing: kernel.Arbitrary}); err == nil {
		t.Error("arbitrary indexing without perm should fail")
	}
}

func TestIndexCosts(t *testing.T) {
	if indexCost(kernel.TileWise) <= indexCost(kernel.RowMajor) {
		t.Error("tile-wise indexing must cost more than row/col (Section 5.2-(6))")
	}
}
