// Package cache models the GPU cache structures the paper studies: the
// per-SM L1 data cache (Fermi/Kepler: 128B lines, write-evict) and the
// sectored L1/Tex unified cache (Maxwell/Pascal: 32B lines, two sectors
// private to CTA-slot parity), and the shared banked L2 (write-back,
// write-allocate, 32B lines).
//
// Each cache owns its MSHR table: the one record of in-flight fills,
// keyed by line and sector (so sectors never share an entry) and holding
// the cycle each fill completes. A Miss is recorded with Reserve once
// the next level has priced the fetch; later reads of that line in the
// same sector merge onto the entry and are reported as "hit reserved",
// the state the paper observes for first-turnaround CTAs in Figure 2.
// Read and Write take the access cycle and first install any fill that
// has landed by then, so a fill reaches the tag array at the first
// access to its line after it completes. The table is unbounded.
//
// The tag store is flat: three arrays per cache (tags, LRU clocks, dirty
// bits) with one slot per way of every set of every sector, allocated
// once by New. Replacement is true LRU: a line installs into the first
// invalid way of its set, else into the way with the oldest use.
package cache

import "fmt"

// Result classifies one cache access.
type Result uint8

const (
	// Hit: the line is present and valid.
	Hit Result = iota
	// HitReserved: the line is already being fetched (MSHR merge); the
	// requester still waits the full miss latency but no new transaction
	// is generated.
	HitReserved
	// Miss: the line is absent; a fill must be requested.
	Miss
	// Bypassed: the access skipped this cache level entirely.
	Bypassed
)

// String returns the result name.
func (r Result) String() string {
	switch r {
	case Hit:
		return "hit"
	case HitReserved:
		return "hit-reserved"
	case Miss:
		return "miss"
	case Bypassed:
		return "bypassed"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// WritePolicy selects how the cache treats stores.
type WritePolicy uint8

const (
	// WriteEvict: a store invalidates any cached copy and is forwarded
	// to the next level (the GPU L1 policy, Section 3.2-D).
	WriteEvict WritePolicy = iota
	// WriteBackAllocate: stores allocate on miss and dirty the line;
	// dirty evictions produce writeback transactions (the L2 policy).
	WriteBackAllocate
)

// Config sizes and configures a cache instance.
type Config struct {
	Size    int // total bytes (across all sectors)
	Line    int // bytes per line
	Assoc   int // ways per set
	Sectors int // 1 = unified; 2 = Maxwell/Pascal sectored L1/Tex
	Policy  WritePolicy
}

// Stats accumulates counters compatible with the profiler metrics the
// paper reports (L1 read transactions, L1->L2 read transactions, hit
// rate).
type Stats struct {
	Reads         uint64 // read accesses reaching the cache
	Writes        uint64 // write accesses reaching the cache
	ReadHits      uint64
	ReadReserved  uint64 // MSHR merges
	ReadMisses    uint64 // misses generating a fill
	WriteHits     uint64
	WriteMisses   uint64
	BypassedReads uint64 // reads routed around the cache
	Evictions     uint64
	Writebacks    uint64 // dirty evictions (WriteBackAllocate only)
	Fills         uint64
}

// Accesses returns the total demand accesses (reads + writes).
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Add accumulates o into s field by field (aggregating per-SM caches or
// summing interval snapshots back into run totals).
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadHits += o.ReadHits
	s.ReadReserved += o.ReadReserved
	s.ReadMisses += o.ReadMisses
	s.WriteHits += o.WriteHits
	s.WriteMisses += o.WriteMisses
	s.BypassedReads += o.BypassedReads
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
	s.Fills += o.Fills
}

// Sub returns the counter deltas s - o; with cumulative snapshots taken
// from the same cache, o earlier than s, every delta is non-negative.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:         s.Reads - o.Reads,
		Writes:        s.Writes - o.Writes,
		ReadHits:      s.ReadHits - o.ReadHits,
		ReadReserved:  s.ReadReserved - o.ReadReserved,
		ReadMisses:    s.ReadMisses - o.ReadMisses,
		WriteHits:     s.WriteHits - o.WriteHits,
		WriteMisses:   s.WriteMisses - o.WriteMisses,
		BypassedReads: s.BypassedReads - o.BypassedReads,
		Evictions:     s.Evictions - o.Evictions,
		Writebacks:    s.Writebacks - o.Writebacks,
		Fills:         s.Fills - o.Fills,
	}
}

// HitRate returns read hits (including reserved merges, which do find
// their data in the cache eventually) over read accesses; the profiler
// convention the paper's HT_RTE series uses.
func (s Stats) HitRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadHits) / float64(s.Reads)
}

// Cache is a set-associative, LRU cache with optional sectoring and
// MSHR-based miss merging. It is a timing/occupancy model: no data is
// stored, only tags.
//
// The tag store is three flat arrays indexed by
// (sector*nsets + set)*assoc + way: tags holds the resident line index
// plus one (zero marks an invalid way; with lines of two bytes or more
// the index is below 2^63, so the increment cannot wrap), lru the clock
// of the way's last use, and dirty its write-back state.
type Cache struct {
	cfg     Config
	nsets   uint64
	tags    []uint64
	lru     []uint64 // larger = more recently used
	dirty   []bool
	pending mshr // MSHR: line+sector key -> fill-completion cycle (mshr.go)
	clock   uint64
	stats   Stats
}

// New builds a cache from cfg. Size must be divisible by Line*Assoc*
// Sectors and the per-sector set count must be positive.
func New(cfg Config) *Cache {
	if cfg.Sectors <= 0 {
		cfg.Sectors = 1
	}
	if cfg.Line <= 0 || cfg.Assoc <= 0 || cfg.Size <= 0 {
		panic("cache: invalid config")
	}
	perSector := cfg.Size / cfg.Sectors
	nsets := perSector / (cfg.Line * cfg.Assoc)
	if nsets <= 0 {
		panic(fmt.Sprintf("cache: size %d too small for line %d assoc %d sectors %d",
			cfg.Size, cfg.Line, cfg.Assoc, cfg.Sectors))
	}
	n := cfg.Sectors * nsets * cfg.Assoc
	return &Cache{
		cfg:   cfg,
		nsets: uint64(nsets),
		tags:  make([]uint64, n),
		lru:   make([]uint64, n),
		dirty: make([]bool, n),
	}
}

// Config returns the construction configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// LineBase returns addr rounded down to its line base.
func (c *Cache) LineBase(addr uint64) uint64 {
	return addr / uint64(c.cfg.Line) * uint64(c.cfg.Line)
}

// set returns the index of way 0 of the set holding line index idx
// (addr / Line) in the given sector.
func (c *Cache) set(idx uint64, sectorID int) int {
	if sectorID < 0 || sectorID >= c.cfg.Sectors {
		sectorID = 0
	}
	return (sectorID*int(c.nsets) + int(idx%c.nsets)) * c.cfg.Assoc
}

// find returns the way of the set at base holding line index idx, or -1.
func (c *Cache) find(base int, idx uint64) int {
	tag := idx + 1
	for i, t := range c.tags[base : base+c.cfg.Assoc] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

// victim returns the way of the set at base to replace: the first
// invalid way, else the least recently used, the lowest way winning
// ties.
func (c *Cache) victim(base int) int {
	v := base
	for i := base; i < base+c.cfg.Assoc; i++ {
		if c.tags[i] == 0 {
			return i
		}
		if c.lru[i] < c.lru[v] {
			v = i
		}
	}
	return v
}

// Read performs a demand load of the line containing addr in the given
// sector at cycle at, after installing that line's fill if it has landed
// by then. HitReserved means an earlier miss on the line is still in
// flight; the second result is the cycle its fill lands, which the
// requester waits for instead of issuing a new fetch (it is zero for
// every other result). On Miss the caller prices the fetch and records
// it with Reserve.
func (c *Cache) Read(addr uint64, sectorID int, at int64) (Result, int64) {
	idx := addr / uint64(c.cfg.Line)
	fillAt, inFlight := c.settle(idx, sectorID, at)
	c.clock++
	c.stats.Reads++
	if w := c.find(c.set(idx, sectorID), idx); w >= 0 {
		c.lru[w] = c.clock
		c.stats.ReadHits++
		return Hit, 0
	}
	if inFlight {
		c.stats.ReadReserved++
		return HitReserved, fillAt
	}
	c.stats.ReadMisses++
	return Miss, 0
}

// Reserve records that the fetch for a Miss on addr's line in the given
// sector completes at cycle at; reads before then merge onto it.
func (c *Cache) Reserve(addr uint64, sectorID int, at int64) {
	c.pending.put(pendKey(addr/uint64(c.cfg.Line), sectorID), at)
}

// BypassRead records a read that skipped this level (ld.global.cg).
func (c *Cache) BypassRead() Result {
	c.stats.BypassedReads++
	return Bypassed
}

// Write performs a demand store of the line containing addr at cycle
// at, after installing that line's fill if it has landed by then; a
// fill still in flight is left in flight. The return value tells the
// caller whether a next-level transaction is needed: WriteEvict always
// forwards; WriteBackAllocate forwards only on miss (the allocation
// fill).
func (c *Cache) Write(addr uint64, sectorID int, at int64) Result {
	idx := addr / uint64(c.cfg.Line)
	c.settle(idx, sectorID, at)
	c.clock++
	c.stats.Writes++
	base := c.set(idx, sectorID)
	w := c.find(base, idx)
	switch c.cfg.Policy {
	case WriteEvict:
		if w >= 0 {
			// Invalidate: this is the early-eviction mechanism behind
			// the write-related category (Figure 4-D).
			c.tags[w] = 0
			c.stats.Evictions++
			c.stats.WriteHits++
		} else {
			c.stats.WriteMisses++
		}
		return Miss // always forwarded to the next level
	case WriteBackAllocate:
		if w >= 0 {
			c.dirty[w] = true
			c.lru[w] = c.clock
			c.stats.WriteHits++
			return Hit
		}
		c.stats.WriteMisses++
		c.insert(base, idx, true)
		return Miss // allocation fill from the next level
	default:
		panic("cache: unknown write policy")
	}
}

// Fill installs the line containing addr in the given sector now. It is
// the synchronous alternative to Reserve for levels whose fetch returns
// at once (the L2), and does not touch the MSHR table.
func (c *Cache) Fill(addr uint64, sectorID int) {
	c.install(addr/uint64(c.cfg.Line), sectorID)
}

// settle installs line idx's in-flight fill if it has landed by cycle
// at; otherwise it reports whether one is in flight and when it lands.
func (c *Cache) settle(idx uint64, sectorID int, at int64) (int64, bool) {
	key := pendKey(idx, sectorID)
	fillAt, ok := c.pending.get(key)
	if !ok {
		return 0, false
	}
	if fillAt > at {
		return fillAt, true
	}
	c.pending.del(key)
	c.install(idx, sectorID)
	return 0, false
}

// install places line idx in the given sector as a clean fill.
func (c *Cache) install(idx uint64, sectorID int) {
	c.clock++
	c.stats.Fills++
	if base := c.set(idx, sectorID); c.find(base, idx) < 0 {
		c.insert(base, idx, false)
	}
}

// Contains reports whether addr's line is valid in the cache (test hook).
func (c *Cache) Contains(addr uint64, sectorID int) bool {
	idx := addr / uint64(c.cfg.Line)
	return c.find(c.set(idx, sectorID), idx) >= 0
}

// Flush invalidates all lines, emitting writebacks for dirty ones, and
// returns the number of writeback transactions.
func (c *Cache) Flush() uint64 {
	var wb uint64
	for i, t := range c.tags {
		if t != 0 && c.dirty[i] {
			wb++
			c.stats.Writebacks++
		}
		c.tags[i] = 0
		c.dirty[i] = false
	}
	return wb
}

// insert places line index idx in the set at base, evicting its victim.
func (c *Cache) insert(base int, idx uint64, dirty bool) {
	v := c.victim(base)
	if c.tags[v] != 0 {
		c.stats.Evictions++
		if c.dirty[v] {
			c.stats.Writebacks++
		}
	}
	c.tags[v] = idx + 1
	c.dirty[v] = dirty
	c.lru[v] = c.clock
}

// pendKey disambiguates identical line indices across sectors.
func pendKey(idx uint64, sectorID int) uint64 {
	return idx<<2 | uint64(sectorID&3)
}
