package kernel

import (
	"reflect"
	"slices"
	"testing"
)

// lineYield is one EachLine callback: the head's kind and direction and
// a copy of the lines it was given.
type lineYield struct {
	Kind  OpKind
	Write bool
	Lines []uint64
}

func collectLines(t *testing.T, w CTAWork, lineBytes int) []lineYield {
	t.Helper()
	var got []lineYield
	EachLine(w, lineBytes, nil, func(op *Op, lines []uint64) {
		if op.Kind == OpLanes {
			t.Errorf("EachLine yielded a lane op on its own: %+v", *op)
		}
		got = append(got, lineYield{op.Kind, op.Mem.Write, slices.Clone(lines)})
	})
	return got
}

// TestEachLineYieldsHeads walks a two-warp CTA holding every op kind:
// compute and barriers yield nothing, a gather and a scatter yield their
// lanes' lines with the head, an atomic yields its one line, and warps
// are walked in order.
func TestEachLineYieldsHeads(t *testing.T) {
	w0 := []Op{Compute(3), Load(0x100, 4, 8, 4)}
	w0 = AppendGather(w0, 4, 0x1000, 0x40, 0x44)
	w0 = append(w0, Barrier(), AtomicAdd(0x2008, 4))
	w1 := AppendScatter(nil, 8, 0x3000, 0x10)
	w1 = append(w1, Store(0x5000, -32, 2, 4))
	got := collectLines(t, CTAWork{Warps: [][]Op{w0, w1}}, 32)
	want := []lineYield{
		{OpMem, false, []uint64{0x100}},
		{OpMem, false, []uint64{0x40, 0x1000}},
		{OpAtomic, true, []uint64{0x2000}},
		{OpMem, true, []uint64{0x0, 0x3000}},
		{OpMem, true, []uint64{0x4fe0, 0x5000}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EachLine yielded\n%+v\nwant\n%+v", got, want)
	}
}

// TestEachLineSkip: a Skip CTA yields nothing and is not drained.
func TestEachLineSkip(t *testing.T) {
	w := CTAWork{
		Skip:  true,
		Warps: [][]Op{{Load(0x100, 4, 32, 4)}},
		More: func(buf [][]Op) ([][]Op, bool) {
			t.Error("EachLine drained a Skip CTA")
			return buf, false
		},
	}
	scratch := make([]uint64, 0, 8)
	if got := collectLines(t, w, 32); len(got) != 0 {
		t.Errorf("Skip CTA yielded %+v", got)
	}
	if out := EachLine(w, 32, scratch, func(*Op, []uint64) {}); cap(out) != cap(scratch) {
		t.Errorf("Skip CTA returned scratch of capacity %d, want the caller's %d", cap(out), cap(scratch))
	}
}

// TestEachLineDrainsMore: a kernel that hands out its trace in chunks
// through More yields the same sequence as its concatenated twin.
func TestEachLineDrainsMore(t *testing.T) {
	chunk := func(c, w int) []Op {
		base := uint64(0x10000*c + 0x1000*w)
		ops := []Op{Compute(1), Load(base, 4, 32, 4)}
		ops = AppendGather(ops, 4, base+0x800, base+0x40)
		return append(ops, Store(base+0x900, 8, 4, 4))
	}
	const warps, chunks = 2, 3
	whole := make([][]Op, warps)
	first := make([][]Op, warps)
	for w := range warps {
		first[w] = chunk(0, w)
		for c := range chunks {
			whole[w] = append(whole[w], chunk(c, w)...)
		}
	}
	next := 1
	more := func(buf [][]Op) ([][]Op, bool) {
		for w := range buf {
			buf[w] = append(buf[w], chunk(next, w)...)
		}
		next++
		return buf, next < chunks
	}
	want := collectLines(t, CTAWork{Warps: whole}, 32)
	got := collectLines(t, CTAWork{Warps: first, More: more}, 32)
	if next != chunks {
		t.Fatalf("More called until chunk %d, want all %d", next, chunks)
	}
	if len(want) != warps*chunks*3 || !reflect.DeepEqual(got, want) {
		t.Errorf("chunked CTA yielded\n%+v\nconcatenated twin yielded\n%+v", got, want)
	}
}

// TestEachLineLineSizes: lines bucket by division, so a 48-byte line
// splits what a 64-byte line merges, and lineBytes <= 0 walks at
// DefaultLineBytes.
func TestEachLineLineSizes(t *testing.T) {
	w := CTAWork{Warps: [][]Op{{Load(0x00, 0, 1, 4), Load(0x20, 0, 1, 4), Load(0x2c, 4, 2, 4)}}}
	lines := func(lineBytes int) [][]uint64 {
		var out [][]uint64
		for _, y := range collectLines(t, w, lineBytes) {
			out = append(out, y.Lines)
		}
		return out
	}
	if got, want := lines(48), [][]uint64{{0}, {0}, {0, 48}}; !reflect.DeepEqual(got, want) {
		t.Errorf("48B lines: %v, want %v", got, want)
	}
	if got, want := lines(64), [][]uint64{{0}, {0}, {0}}; !reflect.DeepEqual(got, want) {
		t.Errorf("64B lines: %v, want %v", got, want)
	}
	def := lines(DefaultLineBytes)
	if want := [][]uint64{{0}, {32}, {32}}; !reflect.DeepEqual(def, want) {
		t.Errorf("%dB lines: %v, want %v", DefaultLineBytes, def, want)
	}
	for _, lb := range []int{0, -7} {
		if got := lines(lb); !reflect.DeepEqual(got, def) {
			t.Errorf("lineBytes %d: %v, want the %dB default %v", lb, got, DefaultLineBytes, def)
		}
	}
}

// TestEachLineZeroAlloc: with a warm scratch, walking a whole trace
// allocates nothing; the callback does not escape.
func TestEachLineZeroAlloc(t *testing.T) {
	ops := []Op{Load(0x1000, 4, 32, 4), Store(0x8000, 128, 32, 4), AtomicAdd(0x40, 4)}
	ops = AppendGather(ops, 4, 0x900, 0x100, 0x500, 0x104)
	w := CTAWork{Warps: [][]Op{ops, ops}}
	var n int
	fn := func(op *Op, lines []uint64) { n += len(lines) }
	scratch := EachLine(w, 32, nil, fn) // warm to capacity
	if a := testing.AllocsPerRun(100, func() {
		scratch = EachLine(w, 32, scratch, fn)
	}); a != 0 {
		t.Errorf("EachLine with warm scratch allocates %.1f times per call, want 0", a)
	}
	if n == 0 {
		t.Error("EachLine yielded no lines")
	}
}
