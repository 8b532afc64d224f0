// Package mem models everything behind the SMs' L1 caches: the NoC that
// connects SMs to the shared L2, the banked write-back L2 cache, and
// off-chip DRAM. Its central observable is the L2 (read) transaction
// count — the metric the paper uses as its primary cache-performance
// indicator (Figure 13, Section 5.2-(5)).
//
// The hierarchy is built as D dies, D = max(arch.Arch.Chiplets, 1): the
// L2 is D slices of L2Size/D bytes, each caching the requests of its own
// die's SMs, with die-major bank and DRAM-channel pools — so a line
// shared by CTAs on one die is fetched once, while sharers spread across
// D dies duplicate it D times and shrink effective capacity (the
// multi-die regime of arXiv 2606.11716). HBM is placed page-interleaved
// across the dies (homeDie); a slice miss whose home stack is another
// die crosses the interposer — it occupies the source die's egress link
// for InterposerInterval cycles and completes RemoteHopLatency later
// (DESIGN.md §13). A monolithic GPU is the one-die case: one slice of
// the whole L2, bank idx%L2Banks, channel idx%channels, and every fill
// homed locally, so the chiplet counters stay zero. The mem script
// goldens (testdata/script_*.txt) pin this package call by call;
// internal/calib's apps.csv, the prof, api and eval-determinism goldens
// and the BENCH_*.json gates pin the whole engine on top of it.
package mem

import (
	"fmt"

	"ctacluster/internal/arch"
	"ctacluster/internal/cache"
)

// Stats aggregates memory-system counters. The two chiplet counters
// stay zero on monolithic descriptors (Chiplets <= 1): on one die every
// fill is homed locally, so nothing increments them.
type Stats struct {
	ReadTransactions   uint64 // 32B read transactions arriving at L2
	WriteTransactions  uint64 // 32B write transactions arriving at L2
	AtomicTransactions uint64
	DRAMReads          uint64 // L2 read misses serviced by DRAM
	DRAMWrites         uint64 // writebacks reaching DRAM

	// RemoteL2Transactions counts L2-slice misses whose home HBM stack
	// is on a different die than the issuing SM — each one crossed the
	// interposer. Always <= DRAMReads; zero on monolithic descriptors.
	RemoteL2Transactions uint64
	// InterposerBytes is the die-to-die traffic volume: L2Line bytes
	// per remote fill. Zero on monolithic descriptors.
	InterposerBytes uint64
}

// Add accumulates o into s field by field.
func (s *Stats) Add(o Stats) {
	s.ReadTransactions += o.ReadTransactions
	s.WriteTransactions += o.WriteTransactions
	s.AtomicTransactions += o.AtomicTransactions
	s.DRAMReads += o.DRAMReads
	s.DRAMWrites += o.DRAMWrites
	s.RemoteL2Transactions += o.RemoteL2Transactions
	s.InterposerBytes += o.InterposerBytes
}

// Sub returns the counter deltas s - o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		ReadTransactions:     s.ReadTransactions - o.ReadTransactions,
		WriteTransactions:    s.WriteTransactions - o.WriteTransactions,
		AtomicTransactions:   s.AtomicTransactions - o.AtomicTransactions,
		DRAMReads:            s.DRAMReads - o.DRAMReads,
		DRAMWrites:           s.DRAMWrites - o.DRAMWrites,
		RemoteL2Transactions: s.RemoteL2Transactions - o.RemoteL2Transactions,
		InterposerBytes:      s.InterposerBytes - o.InterposerBytes,
	}
}

// TxnKind classifies one 32B transaction arriving at the L2.
type TxnKind uint8

const (
	TxnRead TxnKind = iota
	TxnWrite
	TxnAtomic
)

// String returns the transaction-kind name.
func (k TxnKind) String() string {
	switch k {
	case TxnRead:
		return "read"
	case TxnWrite:
		return "write"
	case TxnAtomic:
		return "atomic"
	default:
		return fmt.Sprintf("TxnKind(%d)", int(k))
	}
}

// TxnObserver sees every 32B transaction at the moment its L2 bank
// services it: the service cycle, the injecting SM, the address, the
// kind, whether the L2 serviced it without going to DRAM, and whether
// its fill crossed the interposer to a remote die's HBM stack (always
// false on monolithic descriptors). It exists so the profiling layer
// can trace L2 traffic without this package depending on it; a nil
// observer costs one branch per transaction.
type TxnObserver func(at int64, smID int, addr uint64, kind TxnKind, l2Hit, remote bool)

// System is the shared memory hierarchy below L1, built as
// max(Chiplets, 1) dies.
type System struct {
	ar          *arch.Arch
	dies        int            // max(ar.Chiplets, 1)
	banksPerDie int            // bankFree is die-major: dies*banksPerDie entries
	chansPerDie int            // dramFree is die-major: dies*chansPerDie entries
	slices      []*cache.Cache // per-die L2 slices caching their own SMs' requests
	bankFree    []int64        // next cycle each L2 bank can start a transaction
	dramFree    []int64        // next cycle each DRAM channel can start a transfer
	linkFree    []int64        // next cycle each die's interposer egress link is free
	ports       []port         // per-SM NoC injection ports
	stats       Stats
	obs         TxnObserver // nil unless a profiler is attached
}

// port tracks how many transactions an SM has injected in a cycle so the
// NoC bandwidth limit (transactions/cycle/SM) can be enforced.
type port struct {
	cycle int64
	used  int
}

// New builds the memory system for an architecture: max(Chiplets, 1)
// die-local L2 slices of L2Size/dies bytes, the L2 banks and DRAM
// channels split evenly into die-major pools, and one interposer egress
// link per die (never used on one die).
func New(ar *arch.Arch) *System {
	channels := ar.DRAMChannels
	if channels <= 0 {
		channels = 8
	}
	dies := max(ar.Chiplets, 1)
	s := &System{
		ar:          ar,
		dies:        dies,
		banksPerDie: max(ar.L2Banks/dies, 1),
		chansPerDie: max(channels/dies, 1),
		slices:      make([]*cache.Cache, dies),
		linkFree:    make([]int64, dies),
		ports:       make([]port, ar.SMs),
	}
	for d := range s.slices {
		s.slices[d] = cache.New(cache.Config{
			Size:   ar.L2Size / dies,
			Line:   ar.L2Line,
			Assoc:  ar.L2Assoc,
			Policy: cache.WriteBackAllocate,
		})
	}
	s.bankFree = make([]int64, dies*s.banksPerDie)
	s.dramFree = make([]int64, dies*s.chansPerDie)
	return s
}

// SetObserver attaches fn to every subsequent L2 transaction (nil
// detaches). The engine wires this to the run's profiler.
func (s *System) SetObserver(fn TxnObserver) { s.obs = fn }

// Stats returns a snapshot of the counters.
func (s *System) Stats() Stats { return s.stats }

// L2Stats returns the L2 cache counters, summed over the die slices.
func (s *System) L2Stats() cache.Stats {
	var st cache.Stats
	for _, sl := range s.slices {
		st.Add(sl.Stats())
	}
	return st
}

// DieHomePage is the HBM placement granularity on chiplet descriptors:
// physical memory is interleaved across the dies' HBM stacks in 4KB
// pages (homeDie), the coarsest common interleave of multi-chiplet
// module designs. Page — not line — granularity means a CTA tile's
// contiguous rows mostly share a home stack, which is what makes
// placement matter at all (DESIGN.md §13).
const DieHomePage = 4096

// homeDie is the HBM placement rule (DESIGN.md §13): 4KB pages are
// interleaved across the dies' stacks round-robin, so a slice miss
// fills from die homeDie's stack — locally, or over the interposer.
// On one die every page is homed locally.
func (s *System) homeDie(addr uint64) int {
	return int(addr / DieHomePage % uint64(s.dies))
}

// bankFor maps a transaction from an SM on die to its L2 bank: a
// line-interleaved bank within that die's group, because each die's
// slice caches its own SMs' requests (idx % L2Banks on one die).
func (s *System) bankFor(die int, addr uint64) int {
	idx := addr / uint64(s.ar.L2Line)
	return die*s.banksPerDie + int(idx%uint64(s.banksPerDie))
}

// dramAt reserves a DRAM channel slot for the 32B transfer of addr that
// became ready at svc, returning when the transfer starts. Channel
// occupancy is what throttles over-subscribed streaming kernels. The
// channel comes from the group of home, the die whose HBM stack the
// page lives on, wherever the requester sits; it is idx % channels on
// one die.
func (s *System) dramAt(svc int64, home int, addr uint64) int64 {
	idx := addr / uint64(s.ar.L2Line)
	ch := home*s.chansPerDie + int(idx%uint64(s.chansPerDie))
	start := max(svc, s.dramFree[ch])
	s.dramFree[ch] = start + max(int64(s.ar.DRAMInterval), 1)
	return start
}

// injectAt advances smID's NoC port reservation and returns the cycle
// the transaction enters the interconnect.
func (s *System) injectAt(now int64, smID int) int64 {
	// NoC injection port: NoCBandwidth transactions per cycle per SM.
	inject := now
	bw := s.ar.NoCBandwidth
	if bw <= 0 {
		bw = 1
	}
	if smID >= 0 && smID < len(s.ports) {
		p := &s.ports[smID]
		if p.cycle < inject {
			p.cycle, p.used = inject, 0
		}
		for p.used >= bw {
			p.cycle++
			p.used = 0
		}
		inject = p.cycle
		p.used++
	}
	return inject
}

// route resolves one transaction injected by smID at time now: the
// SM's die, whose slice services it, and the cycle svc its L2 bank
// services it, advancing port and bank reservations.
func (s *System) route(now int64, smID int, addr uint64) (svc int64, die int) {
	die = s.ar.DieOf(smID)
	inject := s.injectAt(now, smID)
	b := s.bankFor(die, addr)
	svc = max(inject, s.bankFree[b])
	s.bankFree[b] = svc + 1 // one transaction per bank per cycle
	return svc, die
}

// fill services the L2 miss of a transaction from die serviced at svc:
// it counts the DRAM read, installs the line in die's slice, and fetches
// it from its home HBM stack. A remote home counts the remote
// transaction and the L2Line of interposer volume and occupies die's
// egress link for InterposerInterval cycles before the DRAM channel is
// reserved; the RemoteHopLatency is added to the returned arrival,
// which includes the DRAM latency.
func (s *System) fill(die int, svc int64, addr uint64) (at int64, remote bool) {
	s.stats.DRAMReads++
	s.slices[die].Fill(addr, 0)
	start, home := svc, s.homeDie(addr)
	if home != die {
		remote = true
		s.stats.RemoteL2Transactions++
		s.stats.InterposerBytes += uint64(s.ar.L2Line)
		start = max(start, s.linkFree[die])
		s.linkFree[die] = start + max(int64(s.ar.InterposerInterval), 1)
	}
	at = s.dramAt(start, home, addr) + int64(s.ar.DRAMLatency)
	if remote {
		at += int64(s.ar.RemoteHopLatency)
	}
	return at, remote
}

// load services a read-type transaction — a load, or an atomic's read
// half — at its L2 bank: a slice hit completes after the L2 latency, a
// miss when its fill arrives. It reports the transaction to the
// observer as kind.
func (s *System) load(now int64, smID int, addr uint64, kind TxnKind) (svc int64, die int, done int64) {
	svc, die = s.route(now, smID, addr)
	hit, remote := true, false
	if res, _ := s.slices[die].Read(addr, 0, svc); res == cache.Miss {
		hit = false
		done, remote = s.fill(die, svc, addr)
	} else {
		done = svc + int64(s.ar.L2Latency)
	}
	if s.obs != nil {
		s.obs(svc, smID, addr, kind, hit, remote)
	}
	return svc, die, done
}

// Read requests nbytes starting at base (an L1 miss fill or a bypassed
// load) on behalf of smID at time now. The request is split into 32B L2
// transactions; the returned time is when the last of them has returned
// to the SM, measured from request issue (i.e. it already includes the
// full load-to-use latency).
func (s *System) Read(now int64, smID int, base uint64, nbytes int) int64 {
	done := now
	line := uint64(s.ar.L2Line)
	end := base + uint64(nbytes)
	for addr := base / line * line; addr < end; addr += line {
		s.stats.ReadTransactions++
		_, _, t := s.load(now, smID, addr, TxnRead)
		done = max(done, t)
	}
	return done
}

// Write forwards a store of nbytes at base (L1 is write-evict, so every
// store reaches L2). Stores are acknowledged at the L2, so the returned
// completion is the L2 service time; the SM does not wait for DRAM.
func (s *System) Write(now int64, smID int, base uint64, nbytes int) int64 {
	done := now
	line := uint64(s.ar.L2Line)
	end := base + uint64(nbytes)
	for addr := base / line * line; addr < end; addr += line {
		s.stats.WriteTransactions++
		svc, die := s.route(now, smID, addr)
		c := s.slices[die]
		hit, remote := true, false
		if res := c.Write(addr, 0, svc); res == cache.Miss {
			// Write-allocate fill from DRAM; the store itself completes
			// once the L2 slice accepts it — the ack is die-local either
			// way — but the fill occupies a channel, and the interposer
			// when the page is homed remotely.
			hit = false
			_, remote = s.fill(die, svc, addr)
			// Dirty the allocated line. This second access counts one more
			// L2 write and write hit per write-allocate miss, which is why
			// L2.Writes = WriteTransactions + AtomicTransactions +
			// L2.WriteMisses (engine/invariants_test.go); the goldens
			// pin that count.
			_ = c.Write(addr, 0, svc)
		}
		if s.obs != nil {
			s.obs(svc, smID, addr, TxnWrite, hit, remote)
		}
		done = max(done, svc+int64(s.ar.L2Latency)/2)
	}
	return done
}

// Atomic performs a global read-modify-write on one address. Atomics
// serialise at their L2 bank and the issuing warp observes the full L2
// round trip.
func (s *System) Atomic(now int64, smID int, addr uint64) int64 {
	s.stats.AtomicTransactions++
	svc, die, done := s.load(now, smID, addr, TxnAtomic)
	_ = s.slices[die].Write(addr, 0, svc)
	// Hold the bank a few extra cycles for the RMW.
	b := s.bankFor(die, addr)
	s.bankFree[b] = max(s.bankFree[b], svc+4)
	return done
}

// Drain flushes every L2 slice, accounting dirty writebacks as DRAM
// writes.
func (s *System) Drain() {
	for _, sl := range s.slices {
		s.stats.DRAMWrites += sl.Flush()
	}
}
