package locality

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
)

// patKernel emits a configurable access pattern for quantification tests.
type patKernel struct {
	ctas int
	ops  func(cta int) []kernel.Op
	refs []kernel.ArrayRef
	grid kernel.Dim3
}

func (k *patKernel) Name() string { return "pat" }
func (k *patKernel) GridDim() kernel.Dim3 {
	if k.grid.Count() > 1 || k.grid.X > 0 {
		return k.grid
	}
	return kernel.Dim1(k.ctas)
}
func (k *patKernel) BlockDim() kernel.Dim3             { return kernel.Dim1(32) }
func (k *patKernel) WarpsPerCTA() int                  { return 1 }
func (k *patKernel) RegsPerThread(arch.Generation) int { return 16 }
func (k *patKernel) SharedMemPerCTA() int              { return 0 }
func (k *patKernel) ArrayRefs() []kernel.ArrayRef      { return k.refs }
func (k *patKernel) Work(l kernel.Launch) kernel.CTAWork {
	ws := l.WarpBufs(1)
	ws[0] = append(ws[0], k.ops(l.CTA)...)
	return kernel.CTAWork{Warps: ws}
}

func TestQuantifyAllShared(t *testing.T) {
	// Every CTA reads the same line: all reuse is inter-CTA.
	k := &patKernel{ctas: 10, ops: func(cta int) []kernel.Op {
		return []kernel.Op{kernel.Load(0x1000, 0, 1, 4)}
	}}
	q := Quantify(k, 32)
	if q.Accesses != 10 || q.Reuses != 9 {
		t.Fatalf("quant = %+v", q)
	}
	if q.InterPct() != 1.0 || q.IntraPct() != 0.0 {
		t.Errorf("split = %v/%v, want 1/0", q.InterPct(), q.IntraPct())
	}
	if q.InterCTALines != 1 {
		t.Errorf("inter lines = %d", q.InterCTALines)
	}
}

func TestQuantifyPrivateRepeat(t *testing.T) {
	// Each CTA reads its own line twice: all reuse is intra-CTA.
	k := &patKernel{ctas: 8, ops: func(cta int) []kernel.Op {
		a := uint64(0x1000 + cta*256)
		return []kernel.Op{kernel.Load(a, 0, 1, 4), kernel.Load(a, 0, 1, 4)}
	}}
	q := Quantify(k, 32)
	if q.IntraPct() != 1.0 || q.InterPct() != 0.0 {
		t.Errorf("split = %v/%v, want 0/1", q.InterPct(), q.IntraPct())
	}
	if q.IntraOnlyLines != 8 {
		t.Errorf("intra-only lines = %d", q.IntraOnlyLines)
	}
}

func TestQuantifyStreaming(t *testing.T) {
	k := &patKernel{ctas: 8, ops: func(cta int) []kernel.Op {
		return []kernel.Op{kernel.Load(uint64(0x1000+cta*256), 4, 32, 4)}
	}}
	q := Quantify(k, 32)
	if q.Reuses != 0 {
		t.Errorf("streaming kernel has %d reuses", q.Reuses)
	}
	if q.SingleUseLines != q.Lines {
		t.Errorf("single-use lines = %d of %d", q.SingleUseLines, q.Lines)
	}
	if q.CoalescingDegree < 0.99 {
		t.Errorf("coalescing = %v, want ~1", q.CoalescingDegree)
	}
}

func TestQuantifyRWConflict(t *testing.T) {
	// CTA i writes line i; CTA i+1 reads it: the write-related signature.
	k := &patKernel{ctas: 8, ops: func(cta int) []kernel.Op {
		own := uint64(0x1000 + cta*32)
		prev := uint64(0x1000 + (cta-1)*32)
		ops := []kernel.Op{kernel.Store(own, 0, 1, 4)}
		if cta > 0 {
			ops = append(ops, kernel.Load(prev, 0, 1, 4))
		}
		return ops
	}}
	q := Quantify(k, 32)
	if q.RWConflictLines == 0 {
		t.Error("cross-CTA read-after-write not detected")
	}
}

func TestQuantifyUncoalesced(t *testing.T) {
	k := &patKernel{ctas: 4, ops: func(cta int) []kernel.Op {
		// 32 lanes, 1KB apart: 32 transactions where 4 would be ideal.
		return []kernel.Op{kernel.Load(uint64(0x10000+cta*64), 1024, 32, 4)}
	}}
	q := Quantify(k, 32)
	if q.CoalescingDegree > 0.5 {
		t.Errorf("coalescing = %v, want low", q.CoalescingDegree)
	}
}

func TestPartitionDirection(t *testing.T) {
	g2 := kernel.Dim2(8, 8)
	cases := []struct {
		name string
		grid kernel.Dim3
		refs []kernel.ArrayRef
		want kernel.Indexing
	}{
		{"1D grid is X-P", kernel.Dim1(64), nil, kernel.ColMajor},
		{"MM: A depends on by only -> Y-P", g2,
			[]kernel.ArrayRef{{Array: "A", DependsBY: true}, {Array: "B", DependsBX: true}},
			kernel.RowMajor},
		{"SGM: B depends on bx only -> X-P", g2,
			[]kernel.ArrayRef{{Array: "B", DependsBX: true}, {Array: "A", DependsBY: true}},
			kernel.ColMajor},
		{"stencil: bx fastest -> Y-P", g2,
			[]kernel.ArrayRef{{Array: "in", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBX}},
			kernel.RowMajor},
		{"transposed: by fastest -> X-P", g2,
			[]kernel.ArrayRef{{Array: "in", DependsBX: true, DependsBY: true, Fastest: kernel.CoordBY}},
			kernel.ColMajor},
		{"no refs defaults to Y-P", g2, nil, kernel.RowMajor},
		{"write refs ignored", g2,
			[]kernel.ArrayRef{{Array: "out", DependsBX: true, Write: true}},
			kernel.RowMajor},
	}
	for _, c := range cases {
		if got := PartitionDirection(c.grid, c.refs); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCategoryMethods(t *testing.T) {
	if !Algorithm.Exploitable() || !CacheLine.Exploitable() {
		t.Error("algorithm and cache-line locality are exploitable (Section 4.1)")
	}
	for _, c := range []Category{Data, Write, Streaming, Uncategorized} {
		if c.Exploitable() {
			t.Errorf("%v should not be exploitable", c)
		}
	}
}

func TestDirectionLabel(t *testing.T) {
	if DirectionLabel(kernel.RowMajor) != "Y-P" || DirectionLabel(kernel.ColMajor) != "X-P" {
		t.Error("direction labels wrong")
	}
	if DirectionLabel(kernel.TileWise) != "XY-P" {
		t.Error("tile-wise label wrong")
	}
}

// TestAnalyzeSharedTableKernel runs the full probe pipeline on a
// synthetic algorithm-related kernel: a large shared table per grid row.
func TestAnalyzeSharedTableKernel(t *testing.T) {
	ar := arch.GTX570()
	k := &patKernel{
		grid: kernel.Dim2(16, 8),
		ops:  nil,
		refs: []kernel.ArrayRef{{Array: "table", DependsBY: true}},
	}
	k.ops = nil
	k.ctas = 128
	work := func(cta int) []kernel.Op {
		bx, by := cta%16, cta/16
		ops := make([]kernel.Op, 0, 10)
		for j := 0; j < 8; j++ {
			off := ((j*2 + bx) % 16) * 128
			ops = append(ops, kernel.Load(uint64(0x10000+by*4096+off), 4, 32, 4))
		}
		return ops
	}
	k.ops = work
	a, err := Analyze(context.Background(), k, ar)
	if err != nil {
		t.Fatal(err)
	}
	if a.Direction != kernel.RowMajor {
		t.Errorf("direction = %v, want Y-P", a.Direction)
	}
	if a.Quant.InterPct() < 0.5 {
		t.Errorf("inter pct = %v, want high", a.Quant.InterPct())
	}
}

// TestOptimizeRoutesByExploitability checks the Figure 5 dispatch:
// exploitable kernels get clustering, streaming gets prefetching.
func TestOptimizeRoutesByExploitability(t *testing.T) {
	ar := arch.GTX570()
	stream := &patKernel{ctas: 64, ops: func(cta int) []kernel.Op {
		return []kernel.Op{
			kernel.Load(uint64(0x10000+cta*128), 4, 32, 4),
			kernel.Store(uint64(0x200000+cta*128), 4, 32, 4),
		}
	}}
	plan, err := Optimize(context.Background(), stream, ar)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Analysis.Exploitable {
		t.Errorf("streaming kernel classified %v (exploitable)", plan.Analysis.Category)
	}
	if plan.Clustered == nil {
		t.Fatal("no transformed kernel")
	}
	// The plan carries the before/after runs, so callers need not
	// simulate again; they must be exactly what a fresh run produces.
	for _, c := range []struct {
		name string
		k    kernel.Kernel
		got  *engine.Result
	}{{"Baseline", stream, plan.Baseline}, {"Optimized", plan.Clustered, plan.Optimized}} {
		want, err := engine.Run(engine.DefaultConfig(ar), c.k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("plan.%s differs from a fresh run of %s", c.name, c.k.Name())
		}
	}
}

// TestOptimizeCancelled pins that the probes run under the caller's
// context: an already-cancelled context stops the pipeline with an
// error wrapping context.Canceled.
func TestOptimizeCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k := &patKernel{ctas: 64, ops: func(cta int) []kernel.Op {
		return []kernel.Op{kernel.Load(uint64(0x10000+cta*128), 4, 32, 4)}
	}}
	if _, err := Optimize(ctx, k, arch.GTX570()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Optimize under a cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestGatherFrac(t *testing.T) {
	k := &patKernel{ctas: 4, ops: func(cta int) []kernel.Op {
		return kernel.AppendGather([]kernel.Op{kernel.Load(uint64(0x1000+cta*128), 4, 32, 4)}, 4, 0x5000, 0x6000)
	}}
	q := Quantify(k, 32)
	if q.ReadOps != 8 || q.GatherOps != 4 {
		t.Errorf("read/gather ops = %d/%d, want 8/4", q.ReadOps, q.GatherOps)
	}
	if q.GatherFrac() != 0.5 {
		t.Errorf("gather frac = %v, want 0.5", q.GatherFrac())
	}
	if (Quant{}).GatherFrac() != 0 {
		t.Error("empty quant should have zero gather frac")
	}
}

// ---- Quantify edge cases ----

// TestQuantifySingleCTAGrid: a 1-CTA grid cannot exhibit inter-CTA
// reuse by construction — every re-touch classifies as intra.
func TestQuantifySingleCTAGrid(t *testing.T) {
	k := &patKernel{ctas: 1, ops: func(cta int) []kernel.Op {
		return []kernel.Op{
			kernel.Load(0x1000, 0, 1, 4),
			kernel.Load(0x1000, 0, 1, 4),
			kernel.Load(0x2000, 4, 32, 4),
		}
	}}
	q := Quantify(k, 32)
	if q.InterCTA != 0 || q.InterCTALines != 0 {
		t.Fatalf("1-CTA grid reported inter-CTA reuse: %+v", q)
	}
	if q.Reuses != 1 || q.IntraCTA != 1 {
		t.Fatalf("repeat load should be one intra reuse: %+v", q)
	}
}

// TestQuantifyGridSmallerThanPartition: a 2-wide grid still quantifies
// cleanly even though it is narrower than any realistic SM partition —
// the walk is placement-independent, so partition geometry never enters.
func TestQuantifyGridSmallerThanPartition(t *testing.T) {
	k := &patKernel{ctas: 2, grid: kernel.Dim2(2, 1), ops: func(cta int) []kernel.Op {
		return []kernel.Op{kernel.Load(0x1000, 0, 1, 4)}
	}}
	q := Quantify(k, 32)
	if q.Accesses != 2 || q.Reuses != 1 || q.InterCTA != 1 {
		t.Fatalf("2-CTA shared line: %+v", q)
	}
	if q.Lines != 1 || q.InterCTALines != 1 {
		t.Fatalf("line accounting: %+v", q)
	}
}

// TestQuantifyNonPowerOfTwoLineBytes: line granularity is arithmetic
// bucketing (addr / lineBytes), not bit masking, so non-power-of-two
// sizes are valid — 48B lines split two 32B-apart scalars that one 64B
// line would merge.
func TestQuantifyNonPowerOfTwoLineBytes(t *testing.T) {
	k := &patKernel{ctas: 2, ops: func(cta int) []kernel.Op {
		// 0x00 and 0x20: same 64B line, same 48B line (0 and 0),
		// while 0x30 lands in 48B-line 1.
		return []kernel.Op{
			kernel.Load(0x00, 0, 1, 4),
			kernel.Load(0x30, 0, 1, 4),
		}
	}}
	q48 := Quantify(k, 48)
	if q48.LineBytes != 48 {
		t.Fatalf("LineBytes = %d, want 48", q48.LineBytes)
	}
	if q48.Lines != 2 {
		t.Fatalf("48B lines = %d, want 2 (0x00 and 0x30 in distinct buckets)", q48.Lines)
	}
	q128 := Quantify(k, 128)
	if q128.Lines != 1 {
		t.Fatalf("128B lines = %d, want 1 (both scalars merge)", q128.Lines)
	}
}

// TestQuantifyDefaultLineBytes: zero and negative granularities fall
// back to the 32B sector default rather than dividing by zero.
func TestQuantifyDefaultLineBytes(t *testing.T) {
	k := &patKernel{ctas: 2, ops: func(cta int) []kernel.Op {
		return []kernel.Op{kernel.Load(0x1000, 0, 1, 4)}
	}}
	for _, lb := range []int{0, -7} {
		q := Quantify(k, lb)
		if q.LineBytes != 32 {
			t.Fatalf("Quantify(lineBytes=%d).LineBytes = %d, want the 32B default", lb, q.LineBytes)
		}
		if q.Accesses != 2 || q.Reuses != 1 {
			t.Fatalf("default-granularity walk broken: %+v", q)
		}
	}
}
