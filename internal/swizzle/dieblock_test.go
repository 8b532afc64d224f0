package swizzle

// Tests for the die-aware placement family: the dieblock remap that
// keeps neighbouring tiles — and the cluster-mates internal/core forms
// out of them — on one die of a chiplet platform (DESIGN.md §13).

import (
	"reflect"
	"strings"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
)

func chipletArch(t testing.TB, dies int) *arch.Arch {
	t.Helper()
	a, err := arch.WithChiplets(arch.TeslaK40(), dies)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestDieBlockNeedsPlatform: the die-aware name without a platform is
// an error, not a silent identity.
func TestDieBlockNeedsPlatform(t *testing.T) {
	k := &tagKernel{grid: kernel.Dim2(8, 8), warps: 1}
	_, err := WrapFor("dieblock", k, nil)
	if err == nil {
		t.Fatal("WrapFor(dieblock, nil) succeeded without a platform")
	}
	if !strings.Contains(err.Error(), "architecture-aware") {
		t.Fatalf("error = %q, want the architecture-aware message", err)
	}
}

// TestDieBlockMonolithicDegenerate pins the harmless-without--chiplet
// contract: on a monolithic descriptor dieblock is the identity remap
// at zero cost, so `-swizzle dieblock` without `-chiplet` changes
// nothing.
func TestDieBlockMonolithicDegenerate(t *testing.T) {
	k := &tagKernel{grid: kernel.Dim2(16, 16), warps: 1}
	sk, err := WrapFor("dieblock", k, arch.TeslaK40())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 256; u++ {
		if sk.Target(u) != u {
			t.Fatalf("monolithic dieblock Target(%d) = %d, want identity", u, sk.Target(u))
		}
	}
	// Zero cost: the Work path must pass through without the prepended
	// index-recomputation compute op.
	w := sk.Work(kernel.Launch{CTA: 3})
	want := k.Work(kernel.Launch{CTA: 3})
	if !reflect.DeepEqual(w, want) {
		t.Error("monolithic dieblock changed the Work trace (charged a cost or remapped)")
	}
}

// TestDieBlockBandPlacement pins the placement property the remap
// exists for: under the round-robin first turnaround (slot u → SM
// u mod SMs), every dispatch slot's tile row lies in the band of that
// SM's die — so cluster-mates formed from neighbouring tiles share a
// die — until a band runs dry.
func TestDieBlockBandPlacement(t *testing.T) {
	ar := chipletArch(t, 2)
	nx, ny := 8, 30 // ny divisible by nothing relevant; bands 16+14 rows
	k := &tagKernel{grid: kernel.Dim2(nx, ny), warps: 1}
	sk, err := WrapFor("dieblock", k, ar)
	if err != nil {
		t.Fatal(err)
	}
	// Band boundary: die 0 has 8 of 15 SMs → rows [0, 30*8/15) = [0,16).
	boundary := ny * 8 / 15
	// Count how many slots draw from their own die's band. With bands
	// proportional to SM shares the fallback only kicks in at the very
	// tail, so demand near-total agreement.
	agree := 0
	for u := 0; u < nx*ny; u++ {
		die := ar.DieOf(u % ar.SMs)
		row := sk.Target(u) / nx
		inBand := (die == 0 && row < boundary) || (die == 1 && row >= boundary)
		if inBand {
			agree++
		}
	}
	if frac := float64(agree) / float64(nx*ny); frac < 0.95 {
		t.Errorf("only %.0f%% of slots draw from their die's band, want >= 95%%", 100*frac)
	}
}

// TestDieBlockCost pins the chiplet-path cost: a real remap charges
// costDieBlock cycles of index recomputation, like the other non-free
// variants.
func TestDieBlockCost(t *testing.T) {
	ar := chipletArch(t, 2)
	k := &tagKernel{grid: kernel.Dim2(8, 8), warps: 1}
	sk, err := WrapFor("dieblock", k, ar)
	if err != nil {
		t.Fatal(err)
	}
	// Find a slot that actually moves, then check the prepended compute.
	for u := 0; u < 64; u++ {
		if sk.Target(u) != u {
			w := sk.Work(kernel.Launch{CTA: u})
			if !reflect.DeepEqual(w.Warps[0][0], kernel.Compute(costDieBlock)) {
				t.Fatalf("dieblock Work head = %v, want Compute(%d)", w.Warps[0][0], costDieBlock)
			}
			return
		}
	}
	t.Fatal("dieblock moved no slot on an 8x8 grid over 2 dies")
}

// FuzzDieBlockBijective fuzzes the dieblock permutation over grid
// shapes, die counts and platforms: whatever the band arithmetic and
// round-robin fallback do, every dispatch slot must map to exactly one
// original CTA. Wired into `make fuzz`.
func FuzzDieBlockBijective(f *testing.F) {
	f.Add(uint16(8), uint16(8), uint8(2), uint8(0))
	f.Add(uint16(13), uint16(7), uint8(3), uint8(1))
	f.Add(uint16(1), uint16(127), uint8(8), uint8(2))
	f.Add(uint16(100), uint16(3), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, nxRaw, nyRaw uint16, diesRaw, pick uint8) {
		nx := int(nxRaw)%128 + 1
		ny := int(nyRaw)%128 + 1
		bases := []*arch.Arch{arch.TeslaK40(), arch.GTX570(), arch.GTX980(), arch.GTX1080(), arch.GTX750Ti()}
		base := bases[int(pick)%len(bases)]
		dies := int(diesRaw)%(arch.MaxChiplets-1) + 2 // 2..8
		if dies > base.SMs {
			dies = base.SMs
		}
		ar, err := arch.WithChiplets(base, dies)
		if err != nil {
			t.Fatal(err)
		}
		k := &tagKernel{grid: kernel.Dim2(nx, ny), warps: 1}
		sk, err := WrapFor("dieblock", k, ar)
		if err != nil {
			t.Fatal(err)
		}
		n := nx * ny
		seen := make([]bool, n)
		for u := 0; u < n; u++ {
			v := sk.Target(u)
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("dieblock on %dx%d over %d dies of %s: Target(%d)=%d not bijective",
					nx, ny, dies, base.Name, u, v)
			}
			seen[v] = true
		}
	})
}
