package cache

// Property tests: randomized access sequences on an advancing clock
// driven through the cache under every configuration family the engine
// uses (Fermi/Kepler write-evict L1, Maxwell/Pascal sectored L1/Tex,
// write-back L2), and through an independent reference model of the
// same policy. After every step the test checks:
//
//   - exact agreement: the access result, the merged fill cycle of a
//     HitReserved, and every Stats counter (hits, misses, merges,
//     evictions, writebacks, fills) equal the model's, and the touched
//     set holds the same lines, with the same dirty bits, in the same
//     ways — so a wrong victim fails at the step it is chosen;
//   - counter conservation: reads and writes each decompose exactly
//     into their outcome counters and Accesses() is their sum;
//   - sector isolation and residency: periodically, Contains agrees
//     with the model for every line of the footprint in every sector.

import (
	"math/rand"
	"slices"
	"testing"
)

// lruModel is the reference: each set keeps its ways in place plus a
// recency list of its valid ways, least recently used first. A line
// installs into the first invalid way, else replaces the head of the
// list. It shares no code with the cache, whose recency is a per-way
// clock.
type lruModel struct {
	line, nsets, assoc int
	sectors            int
	policy             WritePolicy
	sets               map[int]*modelSet
	inFlight           map[uint64]int64 // pendKey -> fill cycle
	stats              Stats
}

type modelSet struct {
	line  []uint64 // line index held by each way
	valid []bool
	dirty []bool
	order []int // valid ways, least recently used first
}

func newModel(cfg Config) *lruModel {
	sectors := cfg.Sectors
	if sectors <= 0 {
		sectors = 1
	}
	return &lruModel{
		line: cfg.Line, assoc: cfg.Assoc, sectors: sectors, policy: cfg.Policy,
		nsets:    cfg.Size / sectors / (cfg.Line * cfg.Assoc),
		sets:     map[int]*modelSet{},
		inFlight: map[uint64]int64{},
	}
}

func (m *lruModel) set(idx uint64, sector int) *modelSet {
	k := sector*m.nsets + int(idx%uint64(m.nsets))
	s := m.sets[k]
	if s == nil {
		s = &modelSet{
			line:  make([]uint64, m.assoc),
			valid: make([]bool, m.assoc),
			dirty: make([]bool, m.assoc),
		}
		m.sets[k] = s
	}
	return s
}

func (s *modelSet) find(idx uint64) int {
	for w := range s.line {
		if s.valid[w] && s.line[w] == idx {
			return w
		}
	}
	return -1
}

// touch makes way w the most recently used.
func (s *modelSet) touch(w int) {
	s.order = append(slices.DeleteFunc(s.order, func(x int) bool { return x == w }), w)
}

func (m *lruModel) insert(s *modelSet, idx uint64, dirty bool) {
	w := slices.Index(s.valid, false)
	if w < 0 {
		w = s.order[0]
		m.stats.Evictions++
		if s.dirty[w] {
			m.stats.Writebacks++
		}
	}
	s.line[w], s.valid[w], s.dirty[w] = idx, true, dirty
	s.touch(w)
}

// install is a fill: a line already present keeps its recency.
func (m *lruModel) install(idx uint64, sector int) {
	m.stats.Fills++
	if s := m.set(idx, sector); s.find(idx) < 0 {
		m.insert(s, idx, false)
	}
}

// settle installs idx's in-flight fill if it has landed by now.
func (m *lruModel) settle(idx uint64, sector int, now int64) (int64, bool) {
	key := pendKey(idx, sector)
	at, ok := m.inFlight[key]
	if !ok {
		return 0, false
	}
	if at > now {
		return at, true
	}
	delete(m.inFlight, key)
	m.install(idx, sector)
	return 0, false
}

func (m *lruModel) read(addr uint64, sector int, now int64) (Result, int64) {
	idx := addr / uint64(m.line)
	at, inFlight := m.settle(idx, sector, now)
	m.stats.Reads++
	s := m.set(idx, sector)
	if w := s.find(idx); w >= 0 {
		s.touch(w)
		m.stats.ReadHits++
		return Hit, 0
	}
	if inFlight {
		m.stats.ReadReserved++
		return HitReserved, at
	}
	m.stats.ReadMisses++
	return Miss, 0
}

func (m *lruModel) write(addr uint64, sector int, now int64) Result {
	idx := addr / uint64(m.line)
	m.settle(idx, sector, now)
	m.stats.Writes++
	s := m.set(idx, sector)
	w := s.find(idx)
	if m.policy == WriteEvict {
		if w >= 0 {
			s.valid[w] = false
			s.order = slices.DeleteFunc(s.order, func(x int) bool { return x == w })
			m.stats.Evictions++
			m.stats.WriteHits++
		} else {
			m.stats.WriteMisses++
		}
		return Miss
	}
	if w >= 0 {
		s.dirty[w] = true
		s.touch(w)
		m.stats.WriteHits++
		return Hit
	}
	m.stats.WriteMisses++
	m.insert(s, idx, true)
	return Miss
}

func (m *lruModel) flush() {
	for _, s := range m.sets {
		for w := range s.valid {
			if s.valid[w] && s.dirty[w] {
				m.stats.Writebacks++
			}
			s.valid[w], s.dirty[w] = false, false
		}
		s.order = s.order[:0]
	}
}

func (m *lruModel) contains(addr uint64, sector int) bool {
	idx := addr / uint64(m.line)
	return m.set(idx, sector).find(idx) >= 0
}

// checkSet compares the set holding addr's line, way by way, with the
// model: same lines in the same ways, same dirty bits.
func checkSet(t *testing.T, c *Cache, m *lruModel, addr uint64, sector int, step int) {
	t.Helper()
	idx := addr / uint64(m.line)
	s := m.set(idx, sector)
	base := c.set(idx, sector)
	for w := 0; w < m.assoc; w++ {
		want := uint64(0)
		if s.valid[w] {
			want = s.line[w] + 1
		}
		if got := c.tags[base+w]; got != want || (want != 0 && c.dirty[base+w] != s.dirty[w]) {
			t.Fatalf("step %d: set of %#x/%d way %d holds tag %d dirty %v, model %d dirty %v",
				step, addr, sector, w, got, c.dirty[base+w], want, s.dirty[w])
		}
	}
}

// checkCounters verifies the exact agreement and the arithmetic
// invariants; it runs after every step.
func checkCounters(t *testing.T, c *Cache, m *lruModel, step int) {
	t.Helper()
	st := c.Stats()
	if st != m.stats {
		t.Fatalf("step %d: stats %+v, model %+v", step, st, m.stats)
	}
	if got := st.ReadHits + st.ReadReserved + st.ReadMisses; got != st.Reads {
		t.Fatalf("step %d: read counters %d (hits %d + reserved %d + misses %d) != reads %d",
			step, got, st.ReadHits, st.ReadReserved, st.ReadMisses, st.Reads)
	}
	if got := st.WriteHits + st.WriteMisses; got != st.Writes {
		t.Fatalf("step %d: write counters %d != writes %d", step, got, st.Writes)
	}
	if st.Accesses() != st.Reads+st.Writes {
		t.Fatalf("step %d: Accesses() = %d, want reads %d + writes %d",
			step, st.Accesses(), st.Reads, st.Writes)
	}
}

// checkResidency walks the whole footprint (O(lines)), so it runs
// periodically rather than per step.
func checkResidency(t *testing.T, c *Cache, m *lruModel, lines []uint64, step int) {
	t.Helper()
	for _, lb := range lines {
		for s := 0; s < m.sectors; s++ {
			if got, want := c.Contains(lb, s), m.contains(lb, s); got != want {
				t.Fatalf("step %d: Contains(%#x, sector %d) = %v, model %v", step, lb, s, got, want)
			}
		}
	}
}

func runRandomSequence(t *testing.T, cfg Config, seed int64, steps int) {
	c := New(cfg)
	m := newModel(cfg)
	rng := rand.New(rand.NewSource(seed))

	// A footprint a few times the cache capacity: hits, misses,
	// evictions and set conflicts all occur. Half the accesses go to
	// twice the associativity's worth of lines in each of a few hot
	// sets, so those sets stay full and their victims follow LRU order.
	nlines := 4 * cfg.Size / cfg.Line
	lines := make([]uint64, nlines)
	for i := range lines {
		lines[i] = uint64(i) * uint64(cfg.Line)
	}
	hotSets := min(m.nsets, 4)

	var now int64
	for step := 0; step < steps; step++ {
		now += int64(rng.Intn(3))
		i := rng.Intn(nlines)
		if rng.Intn(2) == 0 {
			i = rng.Intn(hotSets) + rng.Intn(2*cfg.Assoc)*m.nsets
		}
		addr := lines[i] + uint64(rng.Intn(cfg.Line))
		sector := rng.Intn(m.sectors)
		// Flushes are rare so that sets fill up and replacement, not
		// emptiness, decides most installs.
		switch op := rng.Intn(1000); {
		case op < 600: // read
			res, got := c.Read(addr, sector, now)
			want, wantAt := m.read(addr, sector, now)
			if res != want || got != wantAt {
				t.Fatalf("step %d: Read(%#x, %d) at %d = (%v, %d), model (%v, %d)",
					step, addr, sector, now, res, got, want, wantAt)
			}
			switch {
			case res == Miss && rng.Intn(4) == 0:
				// A synchronous level (the L2) fills at once.
				c.Fill(addr, sector)
				m.install(addr/uint64(cfg.Line), sector)
			case res == Miss:
				at := now + 1 + int64(rng.Intn(60))
				c.Reserve(addr, sector, at)
				m.inFlight[pendKey(addr/uint64(cfg.Line), sector)] = at
			}
		case op < 997: // write
			if res, want := c.Write(addr, sector, now), m.write(addr, sector, now); res != want {
				t.Fatalf("step %d: Write(%#x, %d) at %d = %v, model %v", step, addr, sector, now, res, want)
			}
		default: // flush
			c.Flush()
			m.flush()
		}
		checkCounters(t, c, m, step)
		checkSet(t, c, m, addr, sector, step)
		if step%101 == 0 || step == steps-1 {
			checkResidency(t, c, m, lines, step)
		}
	}

	// Every fill still in flight must match its MSHR entry, and the
	// table must hold nothing else.
	if c.pending.n != len(m.inFlight) {
		t.Fatalf("%d MSHR entries, want %d in flight", c.pending.n, len(m.inFlight))
	}
	for key, at := range m.inFlight {
		if got, ok := c.pending.get(key); !ok || got != at {
			t.Fatalf("MSHR entry %#x = (%d, %v), want fill at %d", key, got, ok, at)
		}
	}
}

func TestCacheRandomizedInvariants(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"fermi-l1-write-evict", Config{Size: 16 * 1024, Line: 128, Assoc: 4, Sectors: 1, Policy: WriteEvict}},
		{"maxwell-l1-sectored", Config{Size: 48 * 1024, Line: 32, Assoc: 8, Sectors: 2, Policy: WriteEvict}},
		{"l2-write-back", Config{Size: 64 * 1024, Line: 32, Assoc: 16, Sectors: 1, Policy: WriteBackAllocate}},
		{"tiny-thrashing", Config{Size: 1024, Line: 32, Assoc: 2, Sectors: 2, Policy: WriteEvict}},
	}
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for _, tc := range configs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				runRandomSequence(t, tc.cfg, seed, steps)
			}
		})
	}
}

// TestSectorIsolationDirected pins the sector property directly: a fill
// in sector 0 must satisfy sector-0 lookups only. The sectored L1/Tex
// of Maxwell/Pascal keys sectors by CTA-slot parity, so cross-sector
// leakage would hand one CTA another CTA's locality.
func TestSectorIsolationDirected(t *testing.T) {
	c := New(Config{Size: 4 * 1024, Line: 32, Assoc: 4, Sectors: 2, Policy: WriteEvict})
	const addr = 0x1000
	if res, _ := c.Read(addr, 0, 0); res != Miss {
		t.Fatalf("cold read = %v, want Miss", res)
	}
	c.Fill(addr, 0)
	if !c.Contains(addr, 0) {
		t.Fatal("line missing from sector 0 after fill")
	}
	if c.Contains(addr, 1) {
		t.Fatal("fill in sector 0 leaked into sector 1")
	}
	if res, _ := c.Read(addr, 1, 0); res != Miss {
		t.Fatalf("sector-1 read after sector-0 fill = %v, want Miss", res)
	}
}
