// Package kernel defines the kernel abstraction the simulator executes
// and the clustering transforms rewrite: grids of CTAs whose warps run
// sequences of compute, memory and barrier operations. It is the
// software half of the paper's execution model (Section 2.1's
// grid → CTA → warp hierarchy) and the surface the Section 4.2
// clustering transforms (internal/core) rewrite.
//
// A CUDA kernel body is represented by its per-warp operation trace — the
// stream of instructions that reach the SM pipelines. This captures
// exactly the information the paper's techniques manipulate (which CTA
// touches which global addresses, in which order, at what cost) without
// needing a CUDA toolchain.
package kernel

import (
	"fmt"
	"math/bits"
	"slices"

	"ctacluster/internal/arch"
)

// Dim3 is a CUDA-style three-dimensional extent or coordinate.
type Dim3 struct {
	X, Y, Z int
}

// Dim1 builds a one-dimensional Dim3.
func Dim1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

// Dim2 builds a two-dimensional Dim3.
func Dim2(x, y int) Dim3 { return Dim3{X: x, Y: y, Z: 1} }

// Count returns the number of elements in the extent.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x == 0 {
		x = 1
	}
	if y == 0 {
		y = 1
	}
	if z == 0 {
		z = 1
	}
	return x * y * z
}

// Plane returns the extent as the 2-D grid (X, Y·Z) that CTA orderings
// and swizzles walk. It keeps the linear CTA id layout z·X·Y + y·X + x,
// and, as in Count, a zero extent counts as 1.
func (d Dim3) Plane() (nx, ny int) {
	return max(d.X, 1), max(d.Y, 1) * max(d.Z, 1)
}

// String renders the extent CUDA-style.
func (d Dim3) String() string { return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z) }

// OpKind tags the operation type of a warp-trace element.
type OpKind uint8

const (
	// OpCompute models arithmetic/shared-memory work occupying the warp
	// for Cycles cycles.
	OpCompute OpKind = iota
	// OpMem is a global-memory access described by the Mem field.
	OpMem
	// OpBarrier is a CTA-wide __syncthreads().
	OpBarrier
	// OpAtomic is a global atomic (serialised at L2, bypasses L1).
	OpAtomic
	// OpLanes carries two lane addresses of the gather or scatter head
	// before it (see AppendGather). It is part of that instruction and
	// never one of its own: a trace walker either skips it along with
	// every other kind it does not handle, or consumes it with its head.
	OpLanes
)

// String returns the kind name.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpMem:
		return "mem"
	case OpBarrier:
		return "barrier"
	case OpAtomic:
		return "atomic"
	case OpLanes:
		return "lanes"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// MemOp describes one warp-level global-memory instruction. A regular
// access covers lanes Base, Base+Stride, ...; an irregular gather or
// scatter sets Gather, leaves Base and Stride 0 and lists its per-lane
// addresses in the OpLanes ops that follow it in the trace. MemOp is 24
// pointer-free bytes, so the GC never scans a trace.
type MemOp struct {
	Base   uint64 // address accessed by lane 0
	Stride int64  // bytes between consecutive active lanes
	Lanes  uint8  // number of active lanes (1..32; 0 means 1 unless Gather)
	Size   uint8  // bytes accessed per lane (typically 4 or 8; 0 means 4)

	Write    bool // store rather than load
	Bypass   bool // skip L1 (ld.global.cg — cache bypassing, §4.3-II)
	Prefetch bool // non-blocking prefetch (prefetch.global.L1 / __ldg, §4.3-III)

	// Streaming is a workload-supplied hint that the access has no reuse
	// (the accesses a developer would rewrite with ld.global.cg). The
	// bypassing optimization turns hinted ops into Bypass ops.
	Streaming bool

	// Gather marks an irregular access whose lane addresses follow it as
	// LaneOps(Lanes) OpLanes ops.
	Gather bool
}

// Op is one element of a warp trace: 32 bytes, two per cache line.
type Op struct {
	Kind   OpKind
	Cycles int32 // OpCompute: busy cycles
	Mem    MemOp
}

// Compute returns a compute op occupying the warp for n cycles. It
// panics if n does not fit in an int32.
func Compute(n int) Op {
	if int(int32(n)) != n {
		panic("kernel: compute cycles must fit in an int32")
	}
	return Op{Kind: OpCompute, Cycles: int32(n)}
}

// Barrier returns a CTA-wide barrier op.
func Barrier() Op { return Op{Kind: OpBarrier} }

// narrow checks a memory op's lane count and per-lane size against
// their 0..255 fields.
func narrow(lanes, size int) (uint8, uint8) {
	if uint(lanes)|uint(size) > 255 {
		panic("kernel: memory op lanes and size must be in 0..255")
	}
	return uint8(lanes), uint8(size)
}

// Load returns a coalescable read: lanes consecutive lanes starting at
// base with the given stride and per-lane size. It panics if lanes or
// size falls outside 0..255.
func Load(base uint64, stride int64, lanes, size int) Op {
	l, sz := narrow(lanes, size)
	return Op{Kind: OpMem, Mem: MemOp{Base: base, Stride: stride, Lanes: l, Size: sz}}
}

// Store is the write counterpart of Load.
func Store(base uint64, stride int64, lanes, size int) Op {
	l, sz := narrow(lanes, size)
	return Op{Kind: OpMem, Mem: MemOp{Base: base, Stride: stride, Lanes: l, Size: sz, Write: true}}
}

// AppendGather appends an irregular read of size bytes per lane at the
// given lane addresses to ops and returns the extended trace: an OpMem
// head with Gather set, Lanes = len(addrs) and Base/Stride 0, then
// LaneOps(len(addrs)) OpLanes ops carrying the addresses two per op.
// addrs is only read, so a caller may pass a stack array. It panics if
// there are more than 255 lanes or size falls outside 0..255.
func AppendGather(ops []Op, size int, addrs ...uint64) []Op {
	return appendIrregular(ops, MemOp{}, size, addrs)
}

// AppendScatter is the write counterpart of AppendGather.
func AppendScatter(ops []Op, size int, addrs ...uint64) []Op {
	return appendIrregular(ops, MemOp{Write: true}, size, addrs)
}

func appendIrregular(ops []Op, m MemOp, size int, addrs []uint64) []Op {
	m.Lanes, m.Size = narrow(len(addrs), size)
	m.Gather = true
	ops = append(ops, Op{Kind: OpMem, Mem: m})
	for i := 0; i < len(addrs); i += 2 {
		pair := Op{Kind: OpLanes, Mem: MemOp{Base: addrs[i]}}
		if i+1 < len(addrs) {
			pair.Mem.Stride = int64(addrs[i+1])
		}
		ops = append(ops, pair)
	}
	return ops
}

// LaneOps returns the number of OpLanes ops that follow a gather or
// scatter head of the given lane count.
func LaneOps(lanes int) int { return (lanes + 1) / 2 }

// LaneAddr decodes lane i's address of a gather or scatter from lanes,
// the trace right after its head: op i/2 holds lanes i and i+1 in its
// Mem.Base and Mem.Stride. It is the one reader of that encoding.
func LaneAddr(lanes []Op, i int) uint64 {
	m := &lanes[i/2].Mem
	if i%2 == 0 {
		return m.Base
	}
	return uint64(m.Stride)
}

// Span returns the number of trace elements the instruction headed by o
// occupies: 1 plus its lane ops for a gather or scatter, 1 otherwise.
func (o Op) Span() int {
	if o.Mem.Gather {
		return 1 + LaneOps(int(o.Mem.Lanes))
	}
	return 1
}

// AtomicAdd returns a global atomic read-modify-write on one address.
func AtomicAdd(addr uint64, size int) Op {
	_, sz := narrow(1, size)
	return Op{Kind: OpAtomic, Mem: MemOp{Base: addr, Lanes: 1, Size: sz, Write: true, Bypass: true}}
}

// Bypassed marks the op's access as L1-bypassing and returns it.
func (o Op) Bypassed() Op { o.Mem.Bypass = true; return o }

// StreamingHint marks the op as reuse-free and returns it.
func (o Op) StreamingHint() Op { o.Mem.Streaming = true; return o }

// Prefetched marks the op as a non-blocking prefetch and returns it.
func (o Op) Prefetched() Op { o.Mem.Prefetch = true; return o }

// laneCount returns the number of lanes the access touches.
func (m *MemOp) laneCount() int {
	if m.Lanes == 0 && !m.Gather {
		return 1
	}
	return int(m.Lanes)
}

// laneAddr returns lane i's address; lanes is the trace after the op,
// read only for a gather or scatter.
func (m *MemOp) laneAddr(lanes []Op, i int) uint64 {
	if m.Gather {
		return LaneAddr(lanes, i)
	}
	return m.Base + uint64(int64(i)*m.Stride)
}

// LaneAddrs returns the effective address of every active lane; lanes
// is the trace after the op, read only for a gather or scatter.
func (m MemOp) LaneAddrs(lanes []Op) []uint64 {
	out := make([]uint64, m.laneCount())
	for i := range out {
		out[i] = m.laneAddr(lanes, i)
	}
	return out
}

// AppendTransactions coalesces the access into the set of distinct
// segment-aligned transactions of segBytes bytes, the job the SM's
// load-store unit coalescer performs before the request reaches L1.
// lanes is the trace after the op, read only for a gather or scatter.
// It appends the sorted, deduplicated segment bases to dst and returns
// the extended slice, allocating only when dst lacks capacity. A caller
// reusing one scratch buffer per lane (the engine does) coalesces with
// zero steady-state allocations.
//
// A regular access is coalesced in closed form: its lanes are walked in
// ascending address order (backwards for a negative Stride), so the
// segments come out sorted by construction and deduplicating is one
// comparison against the last one emitted. When |Stride| <= Size the
// lanes cover one contiguous byte range, which is a single run of
// segments. Gathers and scatters, which read their addresses from the
// lane ops, and regular accesses whose lane span wraps past 2^64, go
// through the general per-lane collect, sort and compact.
func (m MemOp) AppendTransactions(dst []uint64, lanes []Op, segBytes int) []uint64 {
	if segBytes <= 0 {
		panic("kernel: non-positive segment size")
	}
	size := int(m.Size)
	if size == 0 {
		size = 4
	}
	seg := uint64(segBytes)
	if !m.Gather {
		n := m.laneCount()
		if lo, step, ok := m.ascending(n, uint64(size)); ok {
			return appendAscending(dst, lo, step, n, uint64(size), seg)
		}
	}
	return m.appendSorted(dst, lanes, size, seg)
}

// ascending returns the lowest lane address and the distance between
// address-adjacent lanes, provided every lane's bytes lie inside one
// non-wrapping range [lo, lo+(lanes-1)*step+size-1] of the address
// space.
func (m MemOp) ascending(lanes int, size uint64) (lo, step uint64, ok bool) {
	step = uint64(m.Stride)
	if m.Stride < 0 {
		step = -step
	}
	hi, span := bits.Mul64(uint64(lanes-1), step)
	if hi != 0 {
		return 0, 0, false
	}
	lo = m.Base
	if m.Stride < 0 {
		if lo < span {
			return 0, 0, false
		}
		lo -= span
	}
	// The last byte lo+span+size-1 must not pass 2^64-1.
	if span > ^uint64(0)-(size-1) || lo > ^uint64(0)-(size-1)-span {
		return 0, 0, false
	}
	return lo, step, true
}

// appendAscending appends the segments of lanes lanes of size bytes at
// lo, lo+step, ... — a range known not to wrap — in ascending order.
func appendAscending(dst []uint64, lo, step uint64, lanes int, size, seg uint64) []uint64 {
	pow2 := seg&(seg-1) == 0
	floor := func(a uint64) uint64 {
		if pow2 {
			return a &^ (seg - 1)
		}
		return a / seg * seg
	}
	if step <= size {
		return appendRun(dst, floor(lo), floor(lo+uint64(lanes-1)*step+size-1), seg)
	}
	// Lanes are disjoint and ascending, so each lane's first segment is
	// at or after the previous lane's last: only that one can repeat.
	n := len(dst)
	for a := lo; lanes > 0; lanes, a = lanes-1, a+step {
		first, last := floor(a), floor(a+size-1)
		if len(dst) > n && dst[len(dst)-1] == first {
			if first == last {
				continue
			}
			first += seg
		}
		dst = appendRun(dst, first, last, seg)
	}
	return dst
}

// appendRun appends the segment bases first, first+seg, ..., last
// (first <= last).
func appendRun(dst []uint64, first, last, seg uint64) []uint64 {
	for s := first; ; s += seg {
		dst = append(dst, s)
		if s == last {
			return dst
		}
	}
}

// appendSorted is the general coalescer: collect every lane's segments,
// then sort and compact. A lane whose own bytes wrap past 2^64
// contributes no segment.
func (m MemOp) appendSorted(dst []uint64, lanes []Op, size int, seg uint64) []uint64 {
	start := len(dst)
	for i, n := 0, m.laneCount(); i < n; i++ {
		a := m.laneAddr(lanes, i)
		for s, last := a/seg, (a+uint64(size)-1)/seg; s <= last; s++ {
			dst = append(dst, s*seg)
		}
	}
	// Sort and compact in place. The candidate set is tiny (a warp's
	// lanes, a few segments each) and often already sorted, which
	// pdqsort's ascending-run detection makes near-free.
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

// Launch carries the runtime context a CTA observes when it is placed on
// an SM. Ordinary kernels only use CTA; agent-based clustered kernels
// (Section 4.2.3-B) read SM and Slot to bind themselves to a cluster, the
// way the CUDA implementation reads %smid and %warpid / a global atomic.
type Launch struct {
	CTA      int // linear CTA id within the launched kernel's grid
	SM       int // physical SM the CTA was dispatched to
	Slot     int // CTA slot index on that SM
	WarpSlot int // first hardware warp slot occupied by the CTA

	// Buf is the storage Work appends the CTA's warp traces to: nil, or
	// exactly WarpsPerCTA traces whose contents (possibly a non-empty
	// prefix) Work keeps. The engine recycles one Buf per CTA slot, and
	// hands the same storage to the CTA's CTAWork.More; the transforms
	// pass their accumulated traces so an inner kernel appends in place
	// instead of being copied.
	Buf [][]Op
}

// WarpBufs returns l.Buf if it holds n traces, and n empty traces
// otherwise: the slices a Work implementation appends warp w's ops to.
func (l Launch) WarpBufs(n int) [][]Op {
	if len(l.Buf) == n {
		return l.Buf
	}
	return make([][]Op, n)
}

// WorkAfter is how a CTA transform runs the kernel it wraps, in place:
// it appends pre to each of l's warp traces (fresh ones when l.Buf is
// nil), then has k append the ops of CTA l.CTA after it. A Skip result
// is returned as is, and k's continuation (CTAWork.More) is passed
// through. It panics if k returns the wrong number of warps or a warp
// shorter than the prefix it was given, the usual sign of a kernel that
// ignores Launch.Buf.
func WorkAfter(k Kernel, l Launch, pre Op) CTAWork {
	var stack [32]int // CUDA caps a CTA at 32 warps; more spill to the heap
	prefix := stack[:0]
	l.Buf = l.WarpBufs(k.WarpsPerCTA())
	for w := range l.Buf {
		l.Buf[w] = append(l.Buf[w], pre)
		prefix = append(prefix, len(l.Buf[w]))
	}
	work := k.Work(l)
	if work.Skip {
		return work
	}
	if len(work.Warps) != len(prefix) {
		panic(fmt.Sprintf("kernel: %s produced %d warps, want %d", k.Name(), len(work.Warps), len(prefix)))
	}
	for w, ops := range work.Warps {
		if len(ops) < prefix[w] {
			panic(fmt.Sprintf("kernel: %s returned warp %d with %d ops, shorter than its %d-op Launch.Buf prefix: Work must append to l.Buf",
				k.Name(), w, len(ops), prefix[w]))
		}
	}
	return work
}

// CTAWork is everything a dispatched CTA will execute: Warps, then
// whatever More appends.
type CTAWork struct {
	// Warps holds one op trace per warp of the CTA.
	Warps [][]Op
	// More, when non-nil, is the CTA's continuation: it appends the
	// CTA's next chunk of ops to each warp trace in buf (one trace per
	// warp, whose contents it keeps, as Work does with Launch.Buf) and
	// returns the extended traces, and whether a further chunk follows.
	// The CTA's ops are Warps followed by every chunk in call order. Only
	// the agent-based clustering transform sets it, one task per chunk;
	// the engine calls it when a warp runs out of ops (DESIGN §4), and
	// every other consumer takes the whole trace through Drain.
	More func(buf [][]Op) ([][]Op, bool)
	// Skip makes the CTA retire immediately without occupying its slot
	// beyond dispatch; used by agent throttling (agent_id >= ACTIVE_AGENTS).
	Skip bool
}

// Drain returns w with every chunk of its continuation appended to its
// warp traces and More cleared: the CTA's whole trace, for callers that
// read it at once instead of executing it.
func Drain(w CTAWork) CTAWork {
	for more := w.More; more != nil; {
		var ok bool
		if w.Warps, ok = more(w.Warps); !ok {
			more = nil
		}
	}
	w.More = nil
	return w
}

// DefaultLineBytes is the line granularity EachLine walks at when given
// lineBytes <= 0: the 32-byte L2 sector of every Table 1 platform.
const DefaultLineBytes = 32

// EachLine is the one reader that turns a CTA's trace into line
// footprints for analysis. It drains w and calls fn once per OpMem or
// OpAtomic head, in trace order, with that instruction's sorted,
// distinct lineBytes-aligned lines; a gather's or scatter's lane ops are
// read with their head and never passed on their own. A Skip CTA yields
// nothing. The lines are coalesced into scratch, which fn must not keep,
// and the grown scratch is returned for the caller's next CTA.
func EachLine(w CTAWork, lineBytes int, scratch []uint64, fn func(op *Op, lines []uint64)) []uint64 {
	if w.Skip {
		return scratch
	}
	if lineBytes <= 0 {
		lineBytes = DefaultLineBytes
	}
	for _, ops := range Drain(w).Warps {
		for i := range ops {
			op := &ops[i]
			if op.Kind != OpMem && op.Kind != OpAtomic {
				continue
			}
			scratch = op.Mem.AppendTransactions(scratch[:0], ops[i+1:], lineBytes)
			fn(op, scratch)
		}
	}
	return scratch
}

// Kernel is the executable unit the engine dispatches and the clustering
// transforms in internal/core rewrite.
type Kernel interface {
	// Name identifies the kernel in reports.
	Name() string
	// GridDim is the CTA grid extent of the launch.
	GridDim() Dim3
	// BlockDim is the per-CTA thread extent.
	BlockDim() Dim3
	// WarpsPerCTA is ceil(threads-per-CTA / 32).
	WarpsPerCTA() int
	// RegsPerThread is the register cost per thread on a generation
	// (the Table 2 "Registers" column).
	RegsPerThread(g arch.Generation) int
	// SharedMemPerCTA is the static shared-memory cost in bytes.
	SharedMemPerCTA() int
	// Work produces the op traces for the CTA described by l: it
	// appends warp w's ops to l.Buf[w] (l.WarpBufs does the nil case),
	// keeping any prefix already there, and returns the extended slices.
	// It may return only the first chunk of the trace and the rest
	// through CTAWork.More, which must then depend on l alone, not on
	// when it is called. The returned slices belong to the caller, which
	// may truncate them and pass them back as a later Buf (or to More),
	// so Work must never return storage it keeps for itself.
	Work(l Launch) CTAWork
}

// WarpCount returns ceil(block threads / WarpSize) for a block extent.
func WarpCount(block Dim3) int {
	return (block.Count() + arch.WarpSize - 1) / arch.WarpSize
}

// Coord names a kernel index variable that can appear in an array
// subscript; the framework's dependence analysis (Section 4.2.1-A) only
// cares about which block coordinate occupies the fastest-varying
// dimension of each reference.
type Coord uint8

const (
	CoordNone Coord = iota // no block coordinate (thread-only or constant)
	CoordBX                // blockIdx.x
	CoordBY                // blockIdx.y
	CoordBZ                // blockIdx.z
)

// String returns the CUDA name of the coordinate.
func (c Coord) String() string {
	switch c {
	case CoordNone:
		return "-"
	case CoordBX:
		return "blockIdx.x"
	case CoordBY:
		return "blockIdx.y"
	case CoordBZ:
		return "blockIdx.z"
	default:
		return fmt.Sprintf("Coord(%d)", int(c))
	}
}

// ArrayRef summarises one global-array reference in a kernel body for
// the automatic partition-direction analysis of Section 4.2.1-(A).
// The analysis needs two facts per reference: which block coordinates
// the subscript depends on at all, and which one occupies the last
// (fastest-varying) dimension. A reference depending only on blockIdx.y
// (like matrix A in MM, Figure 8) is fully shared among CTAs that differ
// in X, so row-major clustering (Y-partitioning) preserves its reuse; a
// bx-fastest reference shares cache lines across X-adjacent CTAs with
// the same effect. Kernels list their dominant reused array first — the
// "directional locality intensity" hint of Section 4.2.1.
type ArrayRef struct {
	Array     string
	DependsBX bool  // subscript involves blockIdx.x
	DependsBY bool  // subscript involves blockIdx.y
	Fastest   Coord // block coordinate in the last (fastest) dimension
	Write     bool
}

// RefDescriber is implemented by kernels that expose their array
// reference structure to the optimization framework.
type RefDescriber interface {
	ArrayRefs() []ArrayRef
}

// ArrayRefsOf returns k's array references, or nil if k does not
// describe them.
func ArrayRefsOf(k Kernel) []ArrayRef {
	if rd, ok := k.(RefDescriber); ok {
		return rd.ArrayRefs()
	}
	return nil
}

// AddressSpace hands out non-overlapping device allocations so workload
// generators can place their arrays like cudaMalloc would.
type AddressSpace struct {
	next uint64
}

// NewAddressSpace returns an allocator starting at a device-like base.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: 0x1000_0000}
}

// Alloc reserves n bytes aligned to 256 bytes and returns the base.
func (s *AddressSpace) Alloc(n int) uint64 {
	if n < 0 {
		panic("kernel: negative allocation")
	}
	const align = 256
	base := s.next
	s.next += (uint64(n) + align - 1) / align * align
	return base
}
