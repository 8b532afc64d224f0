package cache

// Property tests: randomized access sequences on an advancing clock
// driven through the cache under every configuration family the engine
// uses (Fermi/Kepler write-evict L1, Maxwell/Pascal sectored L1/Tex,
// write-back L2), checking structural invariants after every step:
//
//   - counter conservation: reads and writes each decompose exactly
//     into their outcome counters, Accesses() is their sum, and Fills
//     counts exactly the fills installed;
//   - MSHR timing: a merge reports the in-flight fill's cycle, which is
//     still in the future, and a read at or after that cycle hits;
//   - bounded occupancy: valid lines never exceed ways x sets x sectors;
//   - sector isolation: a sectored cache never serves (Contains) a line
//     from a sector that was not filled — a fill in sector 0 must not
//     make the line visible to sector-1 lookups.

import (
	"math/rand"
	"testing"
)

// shadow tracks which (line, sector) pairs could legitimately be
// resident: set when a fill installs (and by the write-allocate path),
// cleared by the write-evict invalidation and by Flush. The cache may
// hold fewer lines than the shadow (LRU evictions), never more.
type shadow map[uint64]bool

// key is the (line, sector) key, the same one the MSHR table uses.
func (s shadow) key(c *Cache, addr uint64, sector int) uint64 {
	return pendKey(addr/uint64(c.Config().Line), sector)
}

// checkCounters verifies the cheap arithmetic invariants; it runs after
// every step.
func checkCounters(t *testing.T, c *Cache, fills uint64, step int) {
	t.Helper()
	st := c.Stats()
	if st.Fills != fills {
		t.Fatalf("step %d: Fills = %d, want %d installed", step, st.Fills, fills)
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
func checkResidency(t *testing.T, c *Cache, sh shadow, lines []uint64, step int) {
	t.Helper()
	cfg := c.Config()
	sectors := cfg.Sectors
	if sectors <= 0 {
		sectors = 1
	}
	capacity := cfg.Size / cfg.Line // ways x sets x sectors
	resident := 0
	for _, lb := range lines {
		for s := 0; s < sectors; s++ {
			if !c.Contains(lb, s) {
				continue
			}
			resident++
			if !sh[sh.key(c, lb, s)] {
				t.Fatalf("step %d: line %#x is served from sector %d which was never filled", step, lb, s)
			}
		}
	}
	if resident > capacity {
		t.Fatalf("step %d: %d resident lines exceed capacity %d", step, resident, capacity)
	}
}

func runRandomSequence(t *testing.T, cfg Config, seed int64, steps int) {
	c := New(cfg)
	rng := rand.New(rand.NewSource(seed))
	sectors := cfg.Sectors
	if sectors <= 0 {
		sectors = 1
	}

	// A footprint a few times the cache capacity: hits, misses,
	// evictions and set conflicts all occur.
	nlines := 4 * cfg.Size / cfg.Line
	lines := make([]uint64, nlines)
	for i := range lines {
		lines[i] = uint64(i) * uint64(cfg.Line)
	}

	sh := shadow{}
	inFlight := map[uint64]int64{} // shadow key -> fill cycle, mirroring the MSHR table
	var fills uint64
	var now int64

	for step := 0; step < steps; step++ {
		now += int64(rng.Intn(3))
		addr := lines[rng.Intn(nlines)] + uint64(rng.Intn(cfg.Line))
		sector := rng.Intn(sectors)
		key := sh.key(c, addr, sector)
		op := rng.Intn(10)
		fillAt, pending := inFlight[key]
		landed := pending && fillAt <= now && op < 9
		if landed {
			// The read or write below installs the landed fill first.
			delete(inFlight, key)
			sh[key] = true
			fills++
		}
		switch {
		case op < 6: // read
			res, got := c.Read(addr, sector, now)
			switch {
			case landed && res != Hit:
				t.Fatalf("step %d: read at %d after the fill at %d = %v, want Hit", step, now, fillAt, res)
			case res == HitReserved:
				if !pending || got != fillAt || got <= now {
					t.Fatalf("step %d: HitReserved on %#x/%d at %d reports fill at %d, want in-flight fill at %d",
						step, addr, sector, now, got, fillAt)
				}
			case res == Miss && rng.Intn(4) == 0:
				// A synchronous level (the L2) fills at once.
				c.Fill(addr, sector)
				sh[key] = true
				fills++
			case res == Miss:
				inFlight[key] = now + 1 + int64(rng.Intn(60))
				c.Reserve(addr, sector, inFlight[key])
			}
		case op < 9: // write
			res := c.Write(addr, sector, now)
			switch cfg.Policy {
			case WriteEvict:
				if res != Miss {
					t.Fatalf("step %d: write-evict store returned %v, want forwarded Miss", step, res)
				}
				// The store invalidated any cached copy in this sector.
				delete(sh, key)
			case WriteBackAllocate:
				if res == Miss {
					// Allocation fill: the line is now resident.
					sh[key] = true
				}
			}
		default: // occasional flush
			c.Flush()
			sh = shadow{}
		}
		checkCounters(t, c, fills, step)
		if step%101 == 0 || step == steps-1 {
			checkResidency(t, c, sh, lines, step)
		}
	}

	// Every fill still in flight must match its MSHR entry, and the
	// table must hold nothing else.
	if len(c.pending) != len(inFlight) {
		t.Fatalf("%d MSHR entries, want %d in flight", len(c.pending), len(inFlight))
	}
	for key, at := range inFlight {
		if got, ok := c.pending[key]; !ok || got != at {
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
