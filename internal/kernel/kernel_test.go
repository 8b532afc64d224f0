package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDim3Count(t *testing.T) {
	cases := []struct {
		d    Dim3
		want int
	}{
		{Dim1(7), 7},
		{Dim2(3, 4), 12},
		{Dim3{X: 2, Y: 3, Z: 4}, 24},
		{Dim3{X: 5}, 5}, // zero dims count as 1
		{Dim3{}, 1},
	}
	for _, c := range cases {
		if got := c.d.Count(); got != c.want {
			t.Errorf("%v.Count() = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestOpConstructors(t *testing.T) {
	if op := Compute(12); op.Kind != OpCompute || op.Cycles != 12 {
		t.Errorf("Compute: %+v", op)
	}
	if op := Barrier(); op.Kind != OpBarrier {
		t.Errorf("Barrier: %+v", op)
	}
	ld := Load(0x1000, 4, 32, 4)
	if ld.Kind != OpMem || ld.Mem.Write || ld.Mem.Lanes != 32 {
		t.Errorf("Load: %+v", ld)
	}
	st := Store(0x1000, 4, 32, 4)
	if st.Kind != OpMem || !st.Mem.Write {
		t.Errorf("Store: %+v", st)
	}
	g := AppendGather(nil, 8, 1, 2, 3)
	if len(g) != 3 || g[0].Kind != OpMem || g[0].Mem.Lanes != 3 || !g[0].Mem.Gather || g[0].Mem.Write ||
		g[0].Mem.Base != 0 || g[0].Mem.Stride != 0 || g[1].Kind != OpLanes || g[2].Kind != OpLanes {
		t.Errorf("AppendGather: %+v", g)
	}
	if sc := AppendScatter(g[:1], 4, 9); len(sc) != 3 || sc[2].Kind != OpLanes || !sc[1].Mem.Gather || !sc[1].Mem.Write || sc[1].Mem.Lanes != 1 {
		t.Errorf("AppendScatter: %+v", sc)
	}
	at := AtomicAdd(0x2000, 4)
	if at.Kind != OpAtomic || !at.Mem.Write || !at.Mem.Bypass {
		t.Errorf("AtomicAdd: %+v", at)
	}
	if !ld.Bypassed().Mem.Bypass {
		t.Error("Bypassed did not set the flag")
	}
	if !ld.Prefetched().Mem.Prefetch {
		t.Error("Prefetched did not set the flag")
	}
	if !ld.StreamingHint().Mem.Streaming {
		t.Error("StreamingHint did not set the flag")
	}
	// Modifiers must not mutate the original (value semantics).
	if ld.Mem.Bypass || ld.Mem.Prefetch || ld.Mem.Streaming {
		t.Error("modifier mutated the receiver")
	}
}

// TestWarpBufs pins the Buf helper: a Buf of the right length is
// returned as is (prefix and all), anything else yields fresh empty
// traces.
func TestWarpBufs(t *testing.T) {
	buf := [][]Op{{Compute(1)}, nil}
	if got := (Launch{Buf: buf}).WarpBufs(2); &got[0] != &buf[0] || len(got[0]) != 1 {
		t.Errorf("WarpBufs(2) with a 2-trace Buf = %v, want the Buf itself", got)
	}
	for _, l := range []Launch{{}, {Buf: buf}} {
		got := l.WarpBufs(3)
		if len(got) != 3 {
			t.Fatalf("WarpBufs(3) returned %d traces", len(got))
		}
		for w, ops := range got {
			if len(ops) != 0 {
				t.Errorf("WarpBufs(3) warp %d = %v, want empty", w, ops)
			}
		}
	}
}

func TestLaneAddrs(t *testing.T) {
	m := MemOp{Base: 100, Stride: 8, Lanes: 4}
	want := []uint64{100, 108, 116, 124}
	if got := m.LaneAddrs(nil); !slices.Equal(got, want) {
		t.Fatalf("LaneAddrs = %v, want %v", got, want)
	}
	// A gather's addresses come from the lane ops after its head.
	g := AppendGather(nil, 4, 9, 7, 5)
	if got := g[0].Mem.LaneAddrs(g[1:]); !slices.Equal(got, []uint64{9, 7, 5}) {
		t.Errorf("gather LaneAddrs = %v", got)
	}
	// Zero lanes still produce one address.
	m = MemOp{Base: 50}
	if got := m.LaneAddrs(nil); len(got) != 1 || got[0] != 50 {
		t.Errorf("zero-lane LaneAddrs = %v", got)
	}
}

// TestGatherEncoding pins the inline lane encoding: a head, then two
// addresses per OpLanes op, decoded by LaneAddr and spanned by Span, for
// every lane count from 0 to 255 appended after a non-empty prefix.
func TestGatherEncoding(t *testing.T) {
	for n := 0; n <= 255; n++ {
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = ^uint64(0) - uint64(i)*77 // exercises the int64 reinterpretation
		}
		prefix := []Op{Compute(3)}
		ops := AppendGather(prefix, 8, addrs...)
		head := ops[1]
		if got, want := len(ops), 2+LaneOps(n); got != want {
			t.Fatalf("%d lanes: trace of %d ops, want %d", n, got, want)
		}
		if head.Span() != 1+LaneOps(n) || int(head.Mem.Lanes) != n || head.Mem.Size != 8 {
			t.Fatalf("%d lanes: head %+v, span %d", n, head, head.Span())
		}
		for _, lane := range ops[2:] {
			if lane.Kind != OpLanes || lane.Span() != 1 {
				t.Fatalf("%d lanes: lane op %+v", n, lane)
			}
		}
		for i, a := range addrs {
			if got := LaneAddr(ops[2:], i); got != a {
				t.Fatalf("%d lanes: LaneAddr(%d) = %#x, want %#x", n, i, got, a)
			}
		}
	}
	if (Load(0, 4, 32, 4)).Span() != 1 || Compute(1).Span() != 1 {
		t.Error("regular ops must span one element")
	}
}

// TestOpLayout pins what a trace costs: an Op is 32 bytes (two per
// cache line) and holds no pointer, slice, map or interface, so the
// GC never scans a trace; and the constructors reject values their
// narrow fields cannot hold instead of silently truncating them.
func TestOpLayout(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Op{}) = %d, want 32", got)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func, reflect.String:
			t.Errorf("%s is a %s: Op must stay pointer-free", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Op", reflect.TypeOf(Op{}))

	many := make([]uint64, 256)
	for _, c := range []struct {
		name  string
		build func()
		ok    bool
	}{
		{"Load 255 lanes x 255 bytes", func() { Load(0, 4, 255, 255) }, true},
		{"Load 256 lanes", func() { Load(0, 4, 256, 4) }, false},
		{"Load 256 bytes", func() { Load(0, 4, 32, 256) }, false},
		{"Load negative lanes", func() { Load(0, 4, -1, 4) }, false},
		{"Store negative size", func() { Store(0, 4, 32, -4) }, false},
		{"AtomicAdd 256 bytes", func() { AtomicAdd(0, 256) }, false},
		{"AppendGather 255 lanes", func() { AppendGather(nil, 4, many[:255]...) }, true},
		{"AppendGather 256 lanes", func() { AppendGather(nil, 4, many...) }, false},
		{"AppendScatter 256 bytes", func() { AppendScatter(nil, 256, 1) }, false},
		{"Compute max int32", func() { Compute(math.MaxInt32) }, true},
		{"Compute min int32", func() { Compute(math.MinInt32) }, true},
		{"Compute max int32 + 1", func() { Compute(math.MaxInt32 + 1) }, false},
		{"Compute min int32 - 1", func() { Compute(math.MinInt32 - 1) }, false},
	} {
		func() {
			defer func() {
				r := recover()
				if (r == nil) != c.ok {
					t.Errorf("%s: panic = %v, want panic %v", c.name, r, !c.ok)
				}
				if s, _ := r.(string); r != nil && !strings.HasPrefix(s, "kernel: ") {
					t.Errorf("%s: panic %v lacks a kernel: message", c.name, r)
				}
			}()
			c.build()
		}()
	}
}

func TestTransactionsCoalesced(t *testing.T) {
	// 32 lanes x 4B contiguous from a 128B boundary: one 128B segment.
	m := MemOp{Base: 0x1000, Stride: 4, Lanes: 32, Size: 4}
	if txs := m.AppendTransactions(nil, nil, 128); len(txs) != 1 || txs[0] != 0x1000 {
		t.Errorf("coalesced: %v", txs)
	}
	// Same access at 32B granularity: four segments.
	if txs := m.AppendTransactions(nil, nil, 32); len(txs) != 4 {
		t.Errorf("32B segments: %v", txs)
	}
	// Misaligned by 4 bytes: spills into a second 128B line.
	m.Base = 0x1000 + 4
	if txs := m.AppendTransactions(nil, nil, 128); len(txs) != 2 {
		t.Errorf("misaligned: %v", txs)
	}
}

func TestTransactionsStrided(t *testing.T) {
	// Row-stride access: 8 lanes, 1KB apart -> 8 distinct 128B lines.
	m := MemOp{Base: 0, Stride: 1024, Lanes: 8, Size: 4}
	if txs := m.AppendTransactions(nil, nil, 128); len(txs) != 8 {
		t.Errorf("strided: got %d transactions", len(txs))
	}
	// Broadcast (stride 0): one line regardless of lanes.
	m = MemOp{Base: 0x500, Stride: 0, Lanes: 32, Size: 4}
	if txs := m.AppendTransactions(nil, nil, 128); len(txs) != 1 {
		t.Errorf("broadcast: %v", txs)
	}
}

func TestTransactionsSortedUniqueProperty(t *testing.T) {
	f := func(base uint64, stride int16, lanes uint8, size uint8) bool {
		m := MemOp{
			Base:   base % (1 << 40),
			Stride: int64(stride),
			Lanes:  lanes%32 + 1,
			Size:   size%16 + 1,
		}
		txs := m.AppendTransactions(nil, nil, 32)
		if len(txs) == 0 {
			return false
		}
		for i := 1; i < len(txs); i++ {
			if txs[i] <= txs[i-1] {
				return false // must be strictly increasing (sorted, unique)
			}
		}
		for _, a := range txs {
			if a%32 != 0 {
				return false // must be segment-aligned
			}
		}
		// Every lane's bytes must be covered by some transaction.
		covered := func(addr uint64) bool {
			seg := addr / 32 * 32
			for _, a := range txs {
				if a == seg {
					return true
				}
			}
			return false
		}
		for _, la := range m.LaneAddrs(nil) {
			if !covered(la) || !covered(la+uint64(m.Size)-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// refAppendTransactions is the coalescer before the closed-form walk,
// kept as the oracle AppendTransactions is checked against: it collects
// every lane's segments one division at a time, then sorts and compacts
// them. A non-nil addrs lists a gather's lane addresses as the caller
// built them, before the lane-op encoding. For segBytes 1 it never
// returns if a lane ends at the last byte of the address space (its
// loop counter wraps), so callers pass segBytes >= 2.
func refAppendTransactions(m MemOp, addrs []uint64, dst []uint64, segBytes int) []uint64 {
	if segBytes <= 0 {
		panic("kernel: non-positive segment size")
	}
	size := int(m.Size)
	if size == 0 {
		size = 4
	}
	seg := uint64(segBytes)
	start := len(dst)
	appendSegs := func(a uint64) []uint64 {
		first := a / seg
		last := (a + uint64(size) - 1) / seg
		for s := first; s <= last; s++ {
			dst = append(dst, s*seg)
		}
		return dst
	}
	if addrs != nil {
		for _, a := range addrs {
			dst = appendSegs(a)
		}
	} else {
		lanes := int(m.Lanes)
		if lanes == 0 {
			lanes = 1
		}
		for i := 0; i < lanes; i++ {
			dst = appendSegs(m.Base + uint64(int64(i)*m.Stride))
		}
	}
	sub := dst[start:]
	slices.Sort(sub)
	j := 0
	for i := range sub {
		if i == 0 || sub[i] != sub[j-1] {
			sub[j] = sub[i]
			j++
		}
	}
	return dst[:start+j]
}

// checkAgainstReference reports the first way AppendTransactions,
// appending onto a dirty prefix, differs from the reference coalescer:
// the prefix must survive and the appended segments must be the same.
// A non-nil addrs makes the access a gather of m.Size bytes per lane,
// built through AppendGather and coalesced from its lane ops.
func checkAgainstReference(m MemOp, addrs []uint64, segBytes int) error {
	want := refAppendTransactions(m, addrs, nil, segBytes)
	var lanes []Op
	if addrs != nil {
		trace := AppendGather(nil, int(m.Size), addrs...)
		m, lanes = trace[0].Mem, trace[1:]
	}
	prefix := []uint64{0xdead, 0xbeef, 0xcafe}
	dst := append(append([]uint64(nil), prefix...), 7, 7, 7)[:len(prefix)]
	got := m.AppendTransactions(dst, lanes, segBytes)
	if !slices.Equal(got[:min(len(prefix), len(got))], prefix) {
		return fmt.Errorf("%+v seg %d: prefix clobbered: %v", m, segBytes, got)
	}
	if !slices.Equal(got[len(prefix):], want) {
		return fmt.Errorf("%+v seg %d: got %v, want %v", m, segBytes, got[len(prefix):], want)
	}
	if again := m.AppendTransactions(nil, lanes, segBytes); !slices.Equal(again, want) {
		return fmt.Errorf("%+v seg %d: nil-dst AppendTransactions %v, want %v", m, segBytes, again, want)
	}
	return nil
}

// TestAppendTransactionsEquivalence pins the closed-form coalescer to
// the reference on random regular and irregular accesses at the
// segment sizes the engine uses. The engine's determinism contract
// rides on this equivalence.
func TestAppendTransactionsEquivalence(t *testing.T) {
	f := func(base uint64, stride int16, lanes uint8, size uint8, seg uint8, irregular bool) bool {
		segBytes := 32 << (seg % 3) // 32, 64, 128
		m := MemOp{
			Base:   base % (1 << 40),
			Stride: int64(stride),
			Lanes:  lanes%32 + 1,
			Size:   size%16 + 1,
		}
		var addrs []uint64
		if irregular {
			addrs = m.LaneAddrs(nil) // gather path, same addresses
		}
		if err := checkAgainstReference(m, addrs, segBytes); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAppendTransactionsEdges pins the closed-form walk's boundaries
// against the reference: negative and extreme strides, spans ending at
// or wrapping past the top of the address space, non-power-of-two
// segments and defaulted Lanes/Size.
func TestAppendTransactionsEdges(t *testing.T) {
	const top = ^uint64(0)
	cases := []MemOp{
		{Base: 0x1000, Stride: -4, Lanes: 32, Size: 4},
		{Base: 0x1000, Stride: -256, Lanes: 32, Size: 4},
		{Base: 0x7c, Stride: -4, Lanes: 32, Size: 4},   // lowest lane is address 0
		{Base: 0x78, Stride: -4, Lanes: 32, Size: 4},   // lowest lane wraps below 0
		{Base: top - 3, Stride: 0, Lanes: 32, Size: 4}, // ends at the last byte
		{Base: top - 2, Stride: 0, Lanes: 32, Size: 4}, // every lane wraps
		{Base: top - 127, Stride: 4, Lanes: 32, Size: 4},
		{Base: top - 127, Stride: 4, Lanes: 33, Size: 4}, // last lane wraps to 0
		{Base: top - 300, Stride: 200, Lanes: 4, Size: 8},
		{Base: 1 << 62, Stride: math.MaxInt64, Lanes: 3, Size: 4},
		{Base: 1 << 62, Stride: math.MinInt64, Lanes: 3, Size: 4},
		{Base: 0x1000, Stride: 2, Lanes: 16, Size: 4}, // overlapping lanes
		{Base: 0x1000, Stride: 130, Lanes: 8, Size: 4},
		{Base: 0x1000, Stride: 100, Lanes: 8, Size: 255},
		{Base: top - 254, Stride: 1, Lanes: 255, Size: 255},
		{Base: 0x1001}, // Lanes and Size default
		{Base: 0x1000, Stride: 4, Lanes: 1, Size: 1},
	}
	for _, m := range cases {
		for _, seg := range []int{2, 3, 24, 32, 96, 128, 4096} {
			if err := checkAgainstReference(m, nil, seg); err != nil {
				t.Error(err)
			}
		}
	}
}

// FuzzAppendTransactions drives the closed-form coalescer and the
// reference with arbitrary accesses: any base and stride (so negative
// strides and spans wrapping past 2^64 occur), defaulted Lanes and
// Size, non-power-of-two segments, and gathers of up to 255 lanes built
// through AppendGather and coalesced from their lane ops.
func FuzzAppendTransactions(f *testing.F) {
	lanes := func(n int) []byte {
		b := make([]byte, 8*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(i)*0x9e3779b97f4a7c15)
		}
		return b
	}
	f.Add(uint64(0x1000), int64(4), 32, 4, uint16(32), []byte(nil))
	f.Add(uint64(0x1000), int64(-4), 32, 4, uint16(128), []byte(nil))
	f.Add(^uint64(0)-127, int64(4), 33, 4, uint16(96), []byte(nil))
	f.Add(uint64(0x1000), int64(1024), 0, 0, uint16(30), []byte(nil))
	f.Add(uint64(0), int64(0), 3, 8, uint16(32), []byte{1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint64(0), int64(0), 0, 8, uint16(32), lanes(1))
	f.Add(uint64(0), int64(0), 0, 4, uint16(128), lanes(3))
	f.Add(uint64(0), int64(0), 0, 255, uint16(32), lanes(31))
	f.Add(uint64(0), int64(0), 0, 8, uint16(64), lanes(255))
	f.Fuzz(func(t *testing.T, base uint64, stride int64, lanes, size int, seg uint16, gather []byte) {
		m := MemOp{
			Base:   base,
			Stride: stride,
			Lanes:  uint8(lanes), // 0 defaults to 1
			Size:   uint8(size),  // 0 defaults to 4
		}
		var addrs []uint64
		for ; len(gather) >= 8 && len(addrs) < 255; gather = gather[8:] {
			addrs = append(addrs, binary.LittleEndian.Uint64(gather))
		}
		segBytes := 2 + int(seg%4095) // the reference needs >= 2
		if err := checkAgainstReference(m, addrs, segBytes); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAppendTransactionsZeroAlloc pins the point of the variant: with a
// warm scratch buffer, coalescing allocates nothing.
func TestAppendTransactionsZeroAlloc(t *testing.T) {
	m := MemOp{Base: 0x1000, Stride: 4, Lanes: 32, Size: 4}
	buf := m.AppendTransactions(nil, nil, 32) // warm to capacity
	if n := testing.AllocsPerRun(100, func() {
		buf = m.AppendTransactions(buf[:0], nil, 32)
	}); n != 0 {
		t.Errorf("AppendTransactions with warm scratch allocates %.1f times per call, want 0", n)
	}
}

func TestTransactionsPanicsOnBadSegment(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for segment size 0")
		}
	}()
	MemOp{Base: 0, Lanes: 1, Size: 4}.AppendTransactions(nil, nil, 0)
}

func TestIndexingRoundTrip(t *testing.T) {
	grids := []struct{ nx, ny int }{{1, 1}, {4, 4}, {5, 3}, {7, 7}, {9, 2}, {1, 8}, {13, 11}}
	for _, ix := range []Indexing{RowMajor, ColMajor, TileWise} {
		for _, g := range grids {
			seen := make(map[int]bool)
			for y := 0; y < g.ny; y++ {
				for x := 0; x < g.nx; x++ {
					v := LinearIndex(ix, x, y, g.nx, g.ny)
					if v < 0 || v >= g.nx*g.ny {
						t.Fatalf("%v %dx%d: v=%d out of range", ix, g.nx, g.ny, v)
					}
					if seen[v] {
						t.Fatalf("%v %dx%d: duplicate v=%d", ix, g.nx, g.ny, v)
					}
					seen[v] = true
					rx, ry := CoordOf(ix, v, g.nx, g.ny)
					if rx != x || ry != y {
						t.Fatalf("%v %dx%d: round trip (%d,%d) -> %d -> (%d,%d)",
							ix, g.nx, g.ny, x, y, v, rx, ry)
					}
				}
			}
		}
	}
}

func TestIndexingKnownValues(t *testing.T) {
	// Figure 7: 4x4 grid.
	if v := LinearIndex(RowMajor, 1, 2, 4, 4); v != 9 {
		t.Errorf("row-major (1,2) = %d, want 9", v)
	}
	if v := LinearIndex(ColMajor, 1, 2, 4, 4); v != 6 {
		t.Errorf("col-major (1,2) = %d, want 6", v)
	}
	// Tile-wise 4x4 grid with TileDim=4 degenerates to row-major.
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if LinearIndex(TileWise, x, y, 4, 4) != LinearIndex(RowMajor, x, y, 4, 4) {
				t.Fatal("4x4 tile-wise should equal row-major")
			}
		}
	}
}

func TestIndexingStringer(t *testing.T) {
	for ix, want := range map[Indexing]string{
		RowMajor: "row-major", ColMajor: "col-major",
		TileWise: "tile-wise", Arbitrary: "arbitrary",
	} {
		if ix.String() != want {
			t.Errorf("%d.String() = %s, want %s", ix, ix.String(), want)
		}
	}
}

func TestArbitraryIndexingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LinearIndex(Arbitrary) should panic")
		}
	}()
	LinearIndex(Arbitrary, 0, 0, 4, 4)
}

func TestAddressSpace(t *testing.T) {
	as := NewAddressSpace()
	a := as.Alloc(100)
	b := as.Alloc(1)
	c := as.Alloc(300)
	if a%256 != 0 || b%256 != 0 || c%256 != 0 {
		t.Errorf("allocations not 256B aligned: %x %x %x", a, b, c)
	}
	if b < a+100 {
		t.Error("allocations overlap")
	}
	if c < b+1 {
		t.Error("allocations overlap")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Alloc should panic")
		}
	}()
	as.Alloc(-1)
}

func TestWarpCount(t *testing.T) {
	cases := []struct {
		block Dim3
		want  int
	}{
		{Dim1(32), 1},
		{Dim1(33), 2},
		{Dim1(256), 8},
		{Dim2(32, 32), 32},
		{Dim2(8, 8), 2},
	}
	for _, c := range cases {
		if got := WarpCount(c.block); got != c.want {
			t.Errorf("WarpCount(%v) = %d, want %d", c.block, got, c.want)
		}
	}
}

func TestCoordString(t *testing.T) {
	if CoordBX.String() != "blockIdx.x" || CoordBY.String() != "blockIdx.y" || CoordNone.String() != "-" {
		t.Error("Coord.String broken")
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{
		OpCompute: "compute", OpMem: "mem", OpBarrier: "barrier", OpAtomic: "atomic",
	} {
		if k.String() != want {
			t.Errorf("%v.String() = %s", k, k.String())
		}
	}
}
