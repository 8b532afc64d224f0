package core

import (
	"testing"
	"testing/quick"

	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
)

// Work conservation: a clustering transform must execute exactly the
// memory operations of the original kernel — same multiset of (address,
// write) pairs — no matter how it rebinds, reorders or throttles CTAs.
// Only compute/barrier/binding overhead may differ.

// kernelFootprint sums a kernel's demand accesses over launches as a
// multiset keyed by (address, write), walked at 1-byte lines so every
// byte a lane touches counts; ignores prefetches (duplicates by design).
func kernelFootprint(t *testing.T, k kernel.Kernel, launches []kernel.Launch) map[[2]uint64]int {
	t.Helper()
	out := map[[2]uint64]int{}
	var scratch []uint64
	for _, l := range launches {
		scratch = kernel.EachLine(k.Work(l), 1, scratch, func(op *kernel.Op, lines []uint64) {
			if op.Kind != kernel.OpMem || op.Mem.Prefetch {
				return
			}
			w := uint64(0)
			if op.Mem.Write {
				w = 1
			}
			for _, a := range lines {
				out[[2]uint64{a, w}]++
			}
		})
	}
	return out
}

func originalLaunches(k kernel.Kernel) []kernel.Launch {
	n := k.GridDim().Count()
	ls := make([]kernel.Launch, n)
	for i := range ls {
		ls[i] = kernel.Launch{CTA: i}
	}
	return ls
}

// agentLaunches reproduces the engine's placement for an agent kernel:
// every SM receives MaxAgents agents, slot per wave.
func agentLaunches(ag *AgentKernel, sms int) []kernel.Launch {
	var ls []kernel.Launch
	id := 0
	for slot := 0; slot < ag.MaxAgents(); slot++ {
		for sm := 0; sm < sms; sm++ {
			ls = append(ls, kernel.Launch{CTA: id, SM: sm, Slot: slot, WarpSlot: slot * ag.WarpsPerCTA()})
			id++
		}
	}
	return ls
}

func footprintsEqual(a, b map[[2]uint64]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

func TestRedirectConservesWork(t *testing.T) {
	f := func(nxRaw, nyRaw, smRaw uint8) bool {
		nx := int(nxRaw)%7 + 1
		ny := int(nyRaw)%7 + 1
		sms := int(smRaw)%15 + 1
		k := &gridKernel{grid: kernel.Dim2(nx, ny), warps: 2}
		want := kernelFootprint(t, k, originalLaunches(k))
		for _, ix := range []kernel.Indexing{kernel.RowMajor, kernel.ColMajor, kernel.TileWise} {
			rd, err := Redirect(k, sms, ix)
			if err != nil {
				return false
			}
			if !footprintsEqual(want, kernelFootprint(t, rd, originalLaunches(rd))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAgentConservesWork(t *testing.T) {
	k := &gridKernel{grid: kernel.Dim2(9, 5), warps: 2}
	want := kernelFootprint(t, k, originalLaunches(k))
	for _, ar := range []*arch.Arch{arch.GTX570(), arch.TeslaK40(), arch.GTX980()} {
		for _, ix := range []kernel.Indexing{kernel.RowMajor, kernel.ColMajor, kernel.TileWise} {
			for _, active := range []int{0, 1, 2} {
				ag, err := NewAgent(k, AgentConfig{Arch: ar, Indexing: ix, ActiveAgents: active})
				if err != nil {
					t.Fatal(err)
				}
				got := kernelFootprint(t, ag, agentLaunches(ag, ar.SMs))
				if !footprintsEqual(want, got) {
					t.Fatalf("%s/%v/agents=%d: footprint differs (%d vs %d entries)",
						ar.Name, ix, active, len(got), len(want))
				}
			}
		}
	}
}

func TestAgentWithBypassConservesAddresses(t *testing.T) {
	// Bypassing changes the route, not the accesses.
	k := &gridKernel{grid: kernel.Dim2(6, 6), warps: 1}
	want := kernelFootprint(t, k, originalLaunches(k))
	ar := arch.GTX570()
	ag, err := NewAgent(k, AgentConfig{Arch: ar, Indexing: kernel.RowMajor, Bypass: true})
	if err != nil {
		t.Fatal(err)
	}
	if !footprintsEqual(want, kernelFootprint(t, ag, agentLaunches(ag, ar.SMs))) {
		t.Error("bypass changed the access footprint")
	}
}

func TestAgentPrefetchOnlyAddsPrefetches(t *testing.T) {
	// With prefetching, the demand footprint must still be conserved
	// (prefetch ops are excluded from the footprint by construction).
	k := &gridKernel{grid: kernel.Dim2(8, 4), warps: 1}
	want := kernelFootprint(t, k, originalLaunches(k))
	ar := arch.TeslaK40()
	ag, err := NewAgent(k, AgentConfig{Arch: ar, Indexing: kernel.ColMajor, ActiveAgents: 1, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if !footprintsEqual(want, kernelFootprint(t, ag, agentLaunches(ag, ar.SMs))) {
		t.Error("prefetching changed the demand footprint")
	}
}
