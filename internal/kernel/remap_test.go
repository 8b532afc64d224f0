package kernel

import (
	"reflect"
	"testing"

	"ctacluster/internal/arch"
)

// tagKernel emits one load per warp whose address names the CTA that
// ran, so a remapped trace shows which original CTA it came from.
type tagKernel struct {
	grid  Dim3
	warps int
}

func (k *tagKernel) Name() string                      { return "tag" }
func (k *tagKernel) GridDim() Dim3                     { return k.grid }
func (k *tagKernel) BlockDim() Dim3                    { return Dim1(k.warps * 32) }
func (k *tagKernel) WarpsPerCTA() int                  { return k.warps }
func (k *tagKernel) RegsPerThread(arch.Generation) int { return 16 }
func (k *tagKernel) SharedMemPerCTA() int              { return 0 }
func (k *tagKernel) ArrayRefs() []ArrayRef {
	return []ArrayRef{{Array: "A", DependsBY: true, Fastest: CoordBY}}
}
func (k *tagKernel) Work(l Launch) CTAWork {
	ws := l.WarpBufs(k.warps)
	for w := range ws {
		ws[w] = append(ws[w], Load(uint64(0x10000+l.CTA*256), 4, 32, 4))
	}
	return CTAWork{Warps: ws}
}

// ranCTA recovers the original CTA id from a warp's last op.
func ranCTA(ops []Op) int { return int(ops[len(ops)-1].Mem.Base-0x10000) / 256 }

func TestRemappedRunsPermAfterIndexOp(t *testing.T) {
	k := &tagKernel{grid: Dim2(3, 2), warps: 2}
	perm := []int{5, 3, 1, 0, 2, 4}
	r, err := NewRemapped(k, "+X", 7, perm)
	if err != nil {
		t.Fatal(err)
	}
	for u, want := range perm {
		if got := r.Target(u); got != want {
			t.Errorf("Target(%d) = %d, want %d", u, got, want)
		}
		work := r.Work(Launch{CTA: u})
		if len(work.Warps) != 2 {
			t.Fatalf("CTA %d: %d warps, want 2", u, len(work.Warps))
		}
		for w, ops := range work.Warps {
			if len(ops) != 2 || ops[0] != Compute(7) || ranCTA(ops) != want {
				t.Errorf("CTA %d warp %d = %+v, want Compute(7) then CTA %d's load", u, w, ops, want)
			}
		}
	}
	if r.Name() != "tag+X" || r.GridDim() != k.grid || r.WarpsPerCTA() != 2 {
		t.Errorf("metadata: name %q, grid %v, warps %d", r.Name(), r.GridDim(), r.WarpsPerCTA())
	}
}

func TestRemappedNilPermIsIdentity(t *testing.T) {
	k := &tagKernel{grid: Dim2(4, 2), warps: 1}
	r, err := NewRemapped(k, "+ID", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 8; u++ {
		if r.Target(u) != u {
			t.Fatalf("Target(%d) = %d, want identity", u, r.Target(u))
		}
		if got := ranCTA(r.Work(Launch{CTA: u}).Warps[0]); got != u {
			t.Errorf("CTA %d ran original %d", u, got)
		}
	}
}

func TestRemappedZeroCostAppendsNoOp(t *testing.T) {
	k := &tagKernel{grid: Dim2(4, 2), warps: 2}
	r, err := NewRemapped(k, "+Z", 0, []int{1, 0, 3, 2, 5, 4, 7, 6})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Work(Launch{CTA: 2})
	want := k.Work(Launch{CTA: 3})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero-cost remap of CTA 2 = %+v, want original CTA 3's %+v", got, want)
	}
}

func TestRemappedRejectsNonBijection(t *testing.T) {
	k := &tagKernel{grid: Dim2(2, 2), warps: 1}
	for _, perm := range [][]int{
		{0, 1, 2},       // too short
		{0, 1, 2, 3, 0}, // too long
		{0, 1, 1, 3},    // duplicate
		{0, 1, 2, 4},    // out of range
		{-1, 0, 1, 2},   // negative
	} {
		if _, err := NewRemapped(k, "+B", 1, perm); err == nil {
			t.Errorf("perm %v accepted", perm)
		}
	}
}

func TestRemappedForwardsArrayRefs(t *testing.T) {
	k := &tagKernel{grid: Dim2(2, 2), warps: 1}
	r, err := NewRemapped(k, "+R", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ArrayRefsOf(r); !reflect.DeepEqual(got, k.ArrayRefs()) {
		t.Errorf("ArrayRefsOf(remapped) = %+v, want %+v", got, k.ArrayRefs())
	}
	// A remap of a remap still sees the original's references.
	rr, err := NewRemapped(r, "+R", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ArrayRefsOf(rr); !reflect.DeepEqual(got, k.ArrayRefs()) {
		t.Errorf("ArrayRefsOf(remap of remap) = %+v", got)
	}
}

func TestDim3Plane(t *testing.T) {
	for _, c := range []struct {
		d      Dim3
		nx, ny int
	}{
		{Dim1(7), 7, 1},
		{Dim2(4, 3), 4, 3},
		{Dim3{X: 4, Y: 3, Z: 2}, 4, 6},
		{Dim3{X: 5}, 5, 1},
	} {
		nx, ny := c.d.Plane()
		if nx != c.nx || ny != c.ny || nx*ny != c.d.Count() {
			t.Errorf("%v.Plane() = (%d, %d), want (%d, %d)", c.d, nx, ny, c.nx, c.ny)
		}
	}
}
