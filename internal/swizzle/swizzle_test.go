package swizzle

import (
	"strings"
	"testing"
	"testing/quick"

	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
)

// tagKernel is a trivial 2D kernel whose CTAs each emit one tagged load
// and one tagged store, so a remapped trace reveals which original CTA
// it came from (the same trick as internal/core's gridKernel).
type tagKernel struct {
	grid  kernel.Dim3
	warps int
}

func (k *tagKernel) Name() string                      { return "tag" }
func (k *tagKernel) GridDim() kernel.Dim3              { return k.grid }
func (k *tagKernel) BlockDim() kernel.Dim3             { return kernel.Dim1(k.warps * 32) }
func (k *tagKernel) WarpsPerCTA() int                  { return k.warps }
func (k *tagKernel) RegsPerThread(arch.Generation) int { return 16 }
func (k *tagKernel) SharedMemPerCTA() int              { return 0 }
func (k *tagKernel) ArrayRefs() []kernel.ArrayRef {
	return []kernel.ArrayRef{{Array: "A", DependsBX: true}}
}
func (k *tagKernel) Work(l kernel.Launch) kernel.CTAWork {
	ws := l.WarpBufs(k.warps)
	for w := range ws {
		ws[w] = append(ws[w],
			kernel.Load(uint64(0x10000+l.CTA*256), 4, 32, 4),
			kernel.Compute(4),
			kernel.Store(uint64(0x100000+l.CTA*256), 4, 32, 4),
		)
	}
	return kernel.CTAWork{Warps: ws}
}

// footprint sums a kernel's demand accesses over its whole grid as a
// multiset keyed by (address, write), walked at 1-byte lines so every
// byte a lane touches counts; ignores prefetches.
func footprint(t *testing.T, k kernel.Kernel) map[[2]uint64]int {
	t.Helper()
	out := map[[2]uint64]int{}
	var scratch []uint64
	for u := 0; u < k.GridDim().Count(); u++ {
		scratch = kernel.EachLine(k.Work(kernel.Launch{CTA: u}), 1, scratch, func(op *kernel.Op, lines []uint64) {
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

// TestSwizzleConservesWork is the conservation proof: every variant on
// every grid shape executes exactly the original kernel's memory work —
// the same multiset of (address, write) pairs — because the remap is a
// bijection. Property-checked over random grid shapes.
func TestSwizzleConservesWork(t *testing.T) {
	f := func(nxRaw, nyRaw uint8) bool {
		nx := int(nxRaw)%17 + 1
		ny := int(nyRaw)%17 + 1
		k := &tagKernel{grid: kernel.Dim2(nx, ny), warps: 2}
		want := footprint(t, k)
		for _, name := range Names() {
			sk, err := WrapFor(name, k, nil)
			if err != nil {
				return false
			}
			if !footprintsEqual(want, footprint(t, sk)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTargetBijective checks Target is a permutation of the grid for
// every variant on square, wide, tall and non-power-of-two grids.
func TestTargetBijective(t *testing.T) {
	grids := []kernel.Dim3{
		kernel.Dim2(1, 1), kernel.Dim2(8, 8), kernel.Dim2(16, 2),
		kernel.Dim2(2, 16), kernel.Dim2(13, 7), kernel.Dim2(1, 31),
		kernel.Dim2(31, 1), kernel.Dim2(12, 20),
	}
	for _, g := range grids {
		k := &tagKernel{grid: g, warps: 1}
		for _, name := range Names() {
			sk, err := WrapFor(name, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := g.Count()
			seen := make([]bool, n)
			for u := 0; u < n; u++ {
				v := sk.Target(u)
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("%s on %v: Target(%d)=%d is out of range or duplicated", name, g, u, v)
				}
				seen[v] = true
			}
		}
	}
}

// TestZFlattening: a 3D grid is swizzled on its (X, Y·Z) flattening and
// the remap stays bijective over the full CTA count.
func TestZFlattening(t *testing.T) {
	k := &tagKernel{grid: kernel.Dim3{X: 4, Y: 3, Z: 2}, warps: 1}
	for _, name := range Names() {
		sk, err := WrapFor(name, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := k.grid.Count()
		seen := make([]bool, n)
		for u := 0; u < n; u++ {
			v := sk.Target(u)
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("%s: Target(%d)=%d breaks bijectivity on 3D grid", name, u, v)
			}
			seen[v] = true
		}
	}
}

// TestIdentityPassthrough: the identity swizzle is a true no-op — same
// targets, no prepended index-recomputation cost.
func TestIdentityPassthrough(t *testing.T) {
	k := &tagKernel{grid: kernel.Dim2(5, 3), warps: 2}
	sk, err := WrapFor("identity", k, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < k.grid.Count(); u++ {
		if sk.Target(u) != u {
			t.Fatalf("identity Target(%d) = %d", u, sk.Target(u))
		}
	}
	orig := k.Work(kernel.Launch{CTA: 3})
	got := sk.Work(kernel.Launch{CTA: 3})
	if len(got.Warps[0]) != len(orig.Warps[0]) {
		t.Fatalf("identity prepended ops: %d vs %d", len(got.Warps[0]), len(orig.Warps[0]))
	}
}

// TestCostPrepended: every non-identity variant charges its documented
// per-CTA remap cost as exactly one compute op at the head of each warp
// (the die-aware ones on a 2-die platform, where they remap).
func TestCostPrepended(t *testing.T) {
	k := &tagKernel{grid: kernel.Dim2(8, 8), warps: 2}
	ar := chipletArch(t, 2)
	for name, v := range variants {
		if name == Identity {
			continue
		}
		sk, err := WrapFor(name, k, ar)
		if err != nil {
			t.Fatal(err)
		}
		work := sk.Work(kernel.Launch{CTA: 0})
		for wi, warp := range work.Warps {
			if warp[0].Kind != kernel.OpCompute || int(warp[0].Cycles) != v.cost {
				t.Fatalf("%s warp %d: first op = %+v, want Compute(%d)", name, wi, warp[0], v.cost)
			}
			if len(warp) != 4 {
				t.Fatalf("%s warp %d: %d ops, want original 3 plus the remap", name, wi, len(warp))
			}
		}
	}
}

// TestMetadataForwarded: the wrapper forwards every resource and shape
// property plus the reference structure, and labels the kernel.
func TestMetadataForwarded(t *testing.T) {
	k := &tagKernel{grid: kernel.Dim2(6, 4), warps: 3}
	sk, err := WrapFor("XOR", k, nil) // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if sk.Name() != "tag+SWZ(xor)" {
		t.Errorf("Name() = %q, want the canonical lower-case variant", sk.Name())
	}
	if sk.GridDim() != k.grid || sk.BlockDim() != k.BlockDim() || sk.WarpsPerCTA() != 3 {
		t.Error("grid/block/warps not forwarded")
	}
	if sk.RegsPerThread(arch.Kepler) != 16 || sk.SharedMemPerCTA() != 0 {
		t.Error("regs/smem not forwarded")
	}
	refs := sk.ArrayRefs()
	if len(refs) != 1 || refs[0].Array != "A" || !refs[0].DependsBX {
		t.Errorf("ArrayRefs not forwarded: %+v", refs)
	}
}

// TestWrapUnknownName: the error lists the known swizzles sorted,
// matching internal/cli's unknown-app/-arch convention.
func TestWrapUnknownName(t *testing.T) {
	_, err := WrapFor("zorder", &tagKernel{grid: kernel.Dim2(2, 2), warps: 1}, nil)
	if err == nil {
		t.Fatal("want error for unknown swizzle")
	}
	want := `unknown swizzle "zorder" (known: ` + strings.Join(AllNames(), ", ") + ")"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error = %q, want it to contain %q", err, want)
	}
}

// TestNamesSorted: Names() is the sorted registry, and contains the
// four variants the subsystem promises.
func TestNamesSorted(t *testing.T) {
	names := Names()
	want := []string{"groupcol", "hilbert", "identity", "xor"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

// FuzzSwizzleBijective fuzzes the permutation builders over arbitrary
// grid shapes: every variant must produce a bijection and conserve the
// per-CTA work multiset.
func FuzzSwizzleBijective(f *testing.F) {
	f.Add(uint16(8), uint16(8), uint8(0))
	f.Add(uint16(13), uint16(7), uint8(1))
	f.Add(uint16(1), uint16(127), uint8(2))
	f.Add(uint16(100), uint16(3), uint8(3))
	f.Fuzz(func(t *testing.T, nxRaw, nyRaw uint16, pick uint8) {
		nx := int(nxRaw)%128 + 1
		ny := int(nyRaw)%128 + 1
		names := Names()
		name := names[int(pick)%len(names)]
		k := &tagKernel{grid: kernel.Dim2(nx, ny), warps: 1}
		sk, err := WrapFor(name, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := nx * ny
		seen := make([]bool, n)
		for u := 0; u < n; u++ {
			v := sk.Target(u)
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("%s on %dx%d: Target(%d)=%d not bijective", name, nx, ny, u, v)
			}
			seen[v] = true
		}
	})
}
