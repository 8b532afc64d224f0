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

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // larger = more recently used
}

type set struct {
	ways []line
}

type sector struct {
	sets []set
}

// Cache is a set-associative, LRU cache with optional sectoring and
// MSHR-based miss merging. It is a timing/occupancy model: no data is
// stored, only tags.
type Cache struct {
	cfg     Config
	sectors []sector
	pending map[uint64]int64 // MSHR: line+sector key -> fill-completion cycle
	clock   uint64
	stats   Stats
}

// New builds a cache from cfg. Size must be divisible by Line*Assoc*
// Sectors and the per-sector set count must be a power of two.
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
	c := &Cache{cfg: cfg, pending: make(map[uint64]int64)}
	c.sectors = make([]sector, cfg.Sectors)
	for i := range c.sectors {
		c.sectors[i].sets = make([]set, nsets)
		for j := range c.sectors[i].sets {
			c.sectors[i].sets[j].ways = make([]line, cfg.Assoc)
		}
	}
	return c
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

// locate returns the set holding line index idx (addr / Line) in the
// given sector; the index doubles as the tag.
func (c *Cache) locate(idx uint64, sectorID int) *set {
	if sectorID < 0 || sectorID >= len(c.sectors) {
		sectorID = 0
	}
	sec := &c.sectors[sectorID]
	return &sec.sets[idx%uint64(len(sec.sets))]
}

func (s *set) find(tag uint64) *line {
	for i := range s.ways {
		if s.ways[i].valid && s.ways[i].tag == tag {
			return &s.ways[i]
		}
	}
	return nil
}

func (s *set) victim() *line {
	v := &s.ways[0]
	for i := range s.ways {
		w := &s.ways[i]
		if !w.valid {
			return w
		}
		if w.lru < v.lru {
			v = w
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
	if ln := c.locate(idx, sectorID).find(idx); ln != nil {
		ln.lru = c.clock
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
	c.pending[pendKey(addr/uint64(c.cfg.Line), sectorID)] = at
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
	st := c.locate(idx, sectorID)
	ln := st.find(idx)
	switch c.cfg.Policy {
	case WriteEvict:
		if ln != nil {
			// Invalidate: this is the early-eviction mechanism behind
			// the write-related category (Figure 4-D).
			ln.valid = false
			c.stats.Evictions++
			c.stats.WriteHits++
		} else {
			c.stats.WriteMisses++
		}
		return Miss // always forwarded to the next level
	case WriteBackAllocate:
		if ln != nil {
			ln.dirty = true
			ln.lru = c.clock
			c.stats.WriteHits++
			return Hit
		}
		c.stats.WriteMisses++
		c.insert(st, idx, true)
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
	fillAt, ok := c.pending[key]
	if !ok {
		return 0, false
	}
	if fillAt > at {
		return fillAt, true
	}
	delete(c.pending, key)
	c.install(idx, sectorID)
	return 0, false
}

// install places line idx in the given sector as a clean fill.
func (c *Cache) install(idx uint64, sectorID int) {
	c.clock++
	c.stats.Fills++
	if st := c.locate(idx, sectorID); st.find(idx) == nil {
		c.insert(st, idx, false)
	}
}

// Contains reports whether addr's line is valid in the cache (test hook).
func (c *Cache) Contains(addr uint64, sectorID int) bool {
	idx := addr / uint64(c.cfg.Line)
	return c.locate(idx, sectorID).find(idx) != nil
}

// Flush invalidates all lines, emitting writebacks for dirty ones, and
// returns the number of writeback transactions.
func (c *Cache) Flush() uint64 {
	var wb uint64
	for si := range c.sectors {
		for ssi := range c.sectors[si].sets {
			st := &c.sectors[si].sets[ssi]
			for wi := range st.ways {
				ln := &st.ways[wi]
				if ln.valid && ln.dirty {
					wb++
					c.stats.Writebacks++
				}
				ln.valid = false
				ln.dirty = false
			}
		}
	}
	return wb
}

func (c *Cache) insert(st *set, tag uint64, dirty bool) {
	v := st.victim()
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
		}
	}
	*v = line{tag: tag, valid: true, dirty: dirty, lru: c.clock}
}

// pendKey disambiguates identical line indices across sectors.
func pendKey(idx uint64, sectorID int) uint64 {
	return idx<<2 | uint64(sectorID&3)
}
