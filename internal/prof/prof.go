// Package prof is the nvprof-style profiling subsystem: an event-tracing
// layer the engine threads through its hot path (CTA dispatch/retire,
// warp stalls, memory ops, L1 accesses, L2 transactions, all with cycle
// timestamps), a counter registry that snapshots the cache and memory
// statistics at configurable cycle intervals, and exporters that render
// a recorded run as a Chrome trace_event JSON timeline (per-SM lanes,
// CTA lifetime slices) or an nvprof-style CSV metrics table keyed by the
// counter names the paper reports (l2_read_transactions,
// achieved_occupancy, L1 hit rate — the metrics behind Figures 12
// and 13, Section 5.2).
//
// The contract with the engine is zero cost when disabled: a nil
// Profiler in engine.Config skips every emit site behind a single
// pointer comparison, and Event values are passed by value so the
// enabled path performs no per-event boxing either.
package prof

import (
	"fmt"
	"strings"

	"ctacluster/internal/cache"
	"ctacluster/internal/mem"
)

// EventKind tags the type of a traced occurrence.
type EventKind uint8

const (
	// EvCTADispatch: the GigaThread engine placed a CTA on an SM slot.
	EvCTADispatch EventKind = iota
	// EvCTARetire: a CTA finished; Dur holds its lifetime in cycles.
	EvCTARetire
	// EvWarpStall: a warp blocked waiting on in-flight loads; Tag holds
	// the StallReason and Dur the stall length.
	EvWarpStall
	// EvMemOp: one warp memory instruction completed the hierarchy; Tag
	// holds the MemClass and Dur the observed latency.
	EvMemOp
	// EvCacheAccess: one L1-line transaction; Tag holds the cache.Result.
	EvCacheAccess
	// EvL2Transaction: one 32B transaction arrived at the L2; Tag holds
	// the mem.TxnKind and Hit whether the L2 serviced it without DRAM.
	EvL2Transaction

	numEventKinds
)

// String returns the event-kind name used by the exporters.
func (k EventKind) String() string {
	switch k {
	case EvCTADispatch:
		return "cta-dispatch"
	case EvCTARetire:
		return "cta-retire"
	case EvWarpStall:
		return "warp-stall"
	case EvMemOp:
		return "mem-op"
	case EvCacheAccess:
		return "cache-access"
	case EvL2Transaction:
		return "l2-transaction"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// EventMask selects which event kinds a Trace records.
type EventMask uint32

const (
	// MaskCTA records CTA lifetime events (dispatch + retire).
	MaskCTA EventMask = 1<<EvCTADispatch | 1<<EvCTARetire
	// MaskStall records warp stalls.
	MaskStall EventMask = 1 << EvWarpStall
	// MaskMem records completed warp memory ops.
	MaskMem EventMask = 1 << EvMemOp
	// MaskCache records per-L1-line access results.
	MaskCache EventMask = 1 << EvCacheAccess
	// MaskL2 records 32B transactions arriving at the L2.
	MaskL2 EventMask = 1 << EvL2Transaction
	// MaskAll records everything.
	MaskAll = MaskCTA | MaskStall | MaskMem | MaskCache | MaskL2
)

// ParseEvents resolves a comma-separated event selection ("cta,stall",
// "all", ...) into a mask. Unknown names are an error, never skipped.
func ParseEvents(csv string) (EventMask, error) {
	var m EventMask
	for _, tok := range strings.Split(csv, ",") {
		switch strings.ToLower(strings.TrimSpace(tok)) {
		case "cta":
			m |= MaskCTA
		case "stall":
			m |= MaskStall
		case "mem":
			m |= MaskMem
		case "cache":
			m |= MaskCache
		case "l2":
			m |= MaskL2
		case "all":
			m |= MaskAll
		default:
			return 0, fmt.Errorf("prof: unknown event class %q (known: cta, stall, mem, cache, l2, all)", tok)
		}
	}
	return m, nil
}

// StallReason classifies a warp stall (the Tag of an EvWarpStall event).
type StallReason uint8

const (
	// StallWindowFull: the per-warp load window (MLP limit) filled and
	// the warp waits for the whole in-flight batch.
	StallWindowFull StallReason = iota
	// StallDrain: a dependent op (barrier, store, atomic) drains the
	// outstanding loads before issuing.
	StallDrain
	// StallTraceEnd: the warp finished its trace but still has loads in
	// flight.
	StallTraceEnd
)

// String returns the stall-reason name.
func (r StallReason) String() string {
	switch r {
	case StallWindowFull:
		return "window-full"
	case StallDrain:
		return "drain"
	case StallTraceEnd:
		return "trace-end"
	default:
		return fmt.Sprintf("StallReason(%d)", int(r))
	}
}

// MemClass classifies a memory op (the Tag of an EvMemOp event).
type MemClass uint8

const (
	MemLoad MemClass = iota
	MemStore
	MemPrefetch
	MemAtomic
)

// String returns the memory-op class name.
func (c MemClass) String() string {
	switch c {
	case MemLoad:
		return "load"
	case MemStore:
		return "store"
	case MemPrefetch:
		return "prefetch"
	case MemAtomic:
		return "atomic"
	default:
		return fmt.Sprintf("MemClass(%d)", int(c))
	}
}

// Event is one traced occurrence. It is a flat value struct: the engine
// constructs it on the stack and passes it by value, so emitting never
// allocates. Fields that do not apply to a kind are -1 (ids) or zero.
type Event struct {
	Kind   EventKind
	Tag    uint8 // kind-specific: cache.Result, StallReason, MemClass, mem.TxnKind
	Hit    bool  // EvL2Transaction: serviced by the L2 without DRAM
	Write  bool  // memory direction where applicable
	Remote bool  // EvL2Transaction: crossed the interposer (chiplet archs only)
	SM     int32
	CTA    int32
	Warp   int32
	Slot   int32
	Cycle  int64  // timestamp (SM cycles)
	Dur    int64  // duration/latency in cycles where applicable
	Addr   uint64 // address for memory-related kinds
}

// Snapshot is one interval sample of the counter registry: the
// cumulative cache and memory statistics as of Cycle. The engine takes
// one every Profiler.SampleInterval() cycles plus a final one after the
// run drains, so the last snapshot equals the end-of-run totals.
type Snapshot struct {
	Cycle int64
	L1    cache.Stats // aggregated over all SMs
	L2    cache.Stats
	Mem   mem.Stats
}

// Sub returns the counter deltas s - o (Cycle is kept from s).
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{Cycle: s.Cycle, L1: s.L1.Sub(o.L1), L2: s.L2.Sub(o.L2), Mem: s.Mem.Sub(o.Mem)}
}

// Profiler is the hook the engine drives. Emit receives every event at
// the cycle it happens; Snapshot receives interval counter samples when
// SampleInterval returns a positive cycle count (0 disables sampling).
//
// Implementations are called from a single simulation goroutine and
// need no internal locking; distinct engine.Run calls must use distinct
// Profiler instances.
type Profiler interface {
	Emit(Event)
	Snapshot(Snapshot)
	SampleInterval() int64
}
