package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallL1() *Cache {
	// 1KB, 128B lines, 2-way: 4 sets.
	return New(Config{Size: 1024, Line: 128, Assoc: 2, Policy: WriteEvict})
}

// inFlight reports the MSHR entry for addr's line in the given sector:
// the cycle its fill lands, and whether there is one.
func (c *Cache) inFlight(addr uint64, sectorID int) (int64, bool) {
	return c.pending.get(pendKey(addr/uint64(c.cfg.Line), sectorID))
}

func TestColdMissThenHit(t *testing.T) {
	c := smallL1()
	if r, _ := c.Read(0x100, 0, 0); r != Miss {
		t.Fatalf("cold read = %v, want miss", r)
	}
	c.Fill(0x100, 0)
	if r, _ := c.Read(0x100, 0, 1); r != Hit {
		t.Fatalf("read after fill = %v, want hit", r)
	}
	if r, _ := c.Read(0x17F, 0, 2); r != Hit {
		t.Fatalf("same-line read = %v, want hit", r)
	}
	st := c.Stats()
	if st.Reads != 3 || st.ReadHits != 2 || st.ReadMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHitReservedMerging(t *testing.T) {
	c := smallL1()
	if r, _ := c.Read(0x100, 0, 0); r != Miss {
		t.Fatal("first read should miss")
	}
	c.Reserve(0x100, 0, 100)
	// Subsequent reads to the in-flight line merge on the MSHR and wait
	// for the first miss's fill.
	for i := int64(1); i <= 3; i++ {
		r, fillAt := c.Read(0x100+uint64(i), 0, i)
		if r != HitReserved || fillAt != 100 {
			t.Fatalf("read at cycle %d = %v (fill at %d), want hit-reserved (fill at 100)", i, r, fillAt)
		}
	}
	if at, ok := c.inFlight(0x100, 0); !ok || at != 100 {
		t.Errorf("in-flight entry = (%d, %v), want (100, true)", at, ok)
	}
	if st := c.Stats(); st.ReadReserved != 3 || st.ReadMisses != 1 || st.Fills != 0 {
		t.Errorf("stats = %+v, want 3 reserved, 1 miss, 0 fills", st)
	}
	if r, _ := c.Read(0x100, 0, 100); r != Hit {
		t.Fatalf("read once the fill landed = %v, want hit", r)
	}
	if _, ok := c.inFlight(0x100, 0); ok {
		t.Error("landing the fill should clear the MSHR entry")
	}
	if st := c.Stats(); st.Fills != 1 {
		t.Errorf("fills = %d, want 1", st.Fills)
	}
}

// TestFillLandsBeforeLookup pins the install order: a fill due at
// exactly the access cycle is installed before the tag lookup, so the
// access hits; one due a cycle later is still in flight.
func TestFillLandsBeforeLookup(t *testing.T) {
	c := smallL1()
	c.Read(0x000, 0, 0)
	c.Reserve(0x000, 0, 50)
	c.Read(0x080, 0, 0)
	c.Reserve(0x080, 0, 51)
	if r, _ := c.Read(0x000, 0, 50); r != Hit {
		t.Errorf("read at the fill cycle = %v, want hit", r)
	}
	if r, fillAt := c.Read(0x080, 0, 50); r != HitReserved || fillAt != 51 {
		t.Errorf("read a cycle before the fill = %v (fill at %d), want hit-reserved (fill at 51)", r, fillAt)
	}
	if !c.Contains(0x000, 0) || c.Contains(0x080, 0) {
		t.Error("only the landed fill should be resident")
	}
}

// TestStoreDuringInFlightFill pins the write-evict store path: a store
// before the fill lands neither cancels nor installs it, and the line
// installs at the next access after the fill lands.
func TestStoreDuringInFlightFill(t *testing.T) {
	c := smallL1()
	c.Read(0x100, 0, 0)
	c.Reserve(0x100, 0, 50)
	if r := c.Write(0x100, 0, 10); r != Miss {
		t.Fatalf("write-evict store = %v, want forwarded miss", r)
	}
	if at, ok := c.inFlight(0x100, 0); !ok || at != 50 {
		t.Fatalf("store cancelled the in-flight fill: entry = (%d, %v)", at, ok)
	}
	if c.Contains(0x100, 0) {
		t.Fatal("store must not install the in-flight line")
	}
	if r, _ := c.Read(0x100, 0, 60); r != Hit {
		t.Errorf("read after the fill landed = %v, want hit", r)
	}

	// A store after the fill landed installs it first, then evicts it.
	c.Read(0x200, 0, 60)
	c.Reserve(0x200, 0, 70)
	c.Write(0x200, 0, 70)
	if _, ok := c.inFlight(0x200, 0); ok || c.Contains(0x200, 0) {
		t.Error("store at the fill cycle should install then invalidate the line")
	}
	if st := c.Stats(); st.Fills != 2 || st.WriteHits != 1 || st.WriteMisses != 1 {
		t.Errorf("stats = %+v, want 2 fills, 1 write hit, 1 write miss", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallL1() // 4 sets x 2 ways; lines 0x000, 0x200, 0x400 map to set 0
	for _, a := range []uint64{0x000, 0x200} {
		c.Read(a, 0, 0)
		c.Fill(a, 0)
	}
	c.Read(0x000, 0, 0) // touch to make 0x200 the LRU victim
	c.Read(0x400, 0, 0)
	c.Fill(0x400, 0)
	if !c.Contains(0x000, 0) {
		t.Error("recently used line was evicted")
	}
	if c.Contains(0x200, 0) {
		t.Error("LRU line should have been evicted")
	}
	if !c.Contains(0x400, 0) {
		t.Error("new line not present")
	}
}

func TestWriteEvictInvalidates(t *testing.T) {
	c := smallL1()
	c.Read(0x100, 0, 0)
	c.Fill(0x100, 0)
	if r := c.Write(0x100, 0, 0); r != Miss {
		t.Errorf("write-evict write = %v, want miss (always forwarded)", r)
	}
	if c.Contains(0x100, 0) {
		t.Error("write should have invalidated the line (write-evict)")
	}
	// Write to an absent line: still forwarded, no allocation.
	if r := c.Write(0x300, 0, 0); r != Miss {
		t.Errorf("write miss = %v", r)
	}
	if c.Contains(0x300, 0) {
		t.Error("write-evict must not allocate")
	}
}

func TestWriteBackAllocate(t *testing.T) {
	c := New(Config{Size: 1024, Line: 32, Assoc: 2, Policy: WriteBackAllocate})
	if r := c.Write(0x40, 0, 0); r != Miss {
		t.Fatalf("write miss = %v", r)
	}
	if !c.Contains(0x40, 0) {
		t.Fatal("write-allocate should install the line")
	}
	if r := c.Write(0x40, 0, 0); r != Hit {
		t.Fatalf("write hit = %v", r)
	}
	// Evicting the dirty line must count a writeback: fill enough
	// conflicting lines into the same set.
	set := uint64(1024 / 32 / 2) // sets
	for i := uint64(1); i <= 2; i++ {
		addr := 0x40 + i*set*32
		c.Read(addr, 0, 0)
		c.Fill(addr, 0)
	}
	if st := c.Stats(); st.Writebacks == 0 {
		t.Error("dirty eviction should count a writeback")
	}
}

func TestSectorIsolation(t *testing.T) {
	c := New(Config{Size: 2048, Line: 32, Assoc: 2, Sectors: 2, Policy: WriteEvict})
	c.Read(0x100, 0, 0)
	c.Fill(0x100, 0)
	if r, _ := c.Read(0x100, 1, 0); r == Hit {
		t.Error("sector 1 must not see sector 0's line (Section 3.1: sectors are private)")
	}
	if !c.Contains(0x100, 0) || c.Contains(0x100, 1) {
		t.Error("Contains should be sector-local")
	}
}

// TestSectorPendingIsolation: in-flight entries are sector-private, so
// the same line in the other sector misses independently and its fill
// lands on its own schedule.
func TestSectorPendingIsolation(t *testing.T) {
	c := New(Config{Size: 2048, Line: 32, Assoc: 2, Sectors: 2, Policy: WriteEvict})
	if r, _ := c.Read(0x100, 0, 0); r != Miss {
		t.Fatal("want miss")
	}
	c.Reserve(0x100, 0, 50)
	if r, _ := c.Read(0x100, 1, 1); r != Miss {
		t.Errorf("other sector's read = %v, want an independent miss", r)
	}
	c.Reserve(0x100, 1, 80)
	if r, fillAt := c.Read(0x100, 0, 2); r != HitReserved || fillAt != 50 {
		t.Errorf("sector-0 merge = %v (fill at %d), want hit-reserved (fill at 50)", r, fillAt)
	}
	if r, fillAt := c.Read(0x100, 1, 60); r != HitReserved || fillAt != 80 {
		t.Errorf("sector-1 merge = %v (fill at %d), want hit-reserved (fill at 80)", r, fillAt)
	}
	if r, _ := c.Read(0x100, 0, 60); r != Hit {
		t.Errorf("sector-0 read after its fill = %v, want hit", r)
	}
	if c.Contains(0x100, 1) {
		t.Error("sector 0's fill leaked into sector 1")
	}
}

func TestFlush(t *testing.T) {
	c := New(Config{Size: 1024, Line: 32, Assoc: 2, Policy: WriteBackAllocate})
	c.Write(0x40, 0, 0) // dirty
	c.Read(0x80, 0, 0)
	c.Fill(0x80, 0) // clean
	wb := c.Flush()
	if wb != 1 {
		t.Errorf("flush writebacks = %d, want 1", wb)
	}
	if c.Contains(0x40, 0) || c.Contains(0x80, 0) {
		t.Error("flush should invalidate everything")
	}
}

func TestHitRate(t *testing.T) {
	c := smallL1()
	c.Read(0x100, 0, 0)
	c.Fill(0x100, 0)
	c.Read(0x100, 0, 0)
	c.Read(0x100, 0, 0)
	if hr := c.Stats().HitRate(); hr < 0.66 || hr > 0.67 {
		t.Errorf("hit rate = %v, want 2/3", hr)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
}

func TestBypassRead(t *testing.T) {
	c := smallL1()
	if r := c.BypassRead(); r != Bypassed {
		t.Errorf("BypassRead = %v", r)
	}
	if c.Stats().BypassedReads != 1 {
		t.Error("bypass not counted")
	}
}

func TestResetStats(t *testing.T) {
	c := smallL1()
	c.Read(0x100, 0, 0)
	c.Fill(0x100, 0)
	c.ResetStats()
	if c.Stats().Accesses() != 0 {
		t.Error("ResetStats should zero counters")
	}
	if !c.Contains(0x100, 0) {
		t.Error("ResetStats must not drop contents")
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	bad := []Config{
		{Size: 0, Line: 32, Assoc: 1},
		{Size: 64, Line: 0, Assoc: 1},
		{Size: 64, Line: 32, Assoc: 0},
		{Size: 32, Line: 128, Assoc: 4}, // too small for one set
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestResultString(t *testing.T) {
	for r, want := range map[Result]string{
		Hit: "hit", HitReserved: "hit-reserved", Miss: "miss", Bypassed: "bypassed",
	} {
		if r.String() != want {
			t.Errorf("%v.String() = %s", r, r.String())
		}
	}
}

// TestRandomizedConsistency drives the cache with random traffic on an
// advancing clock, each miss reserving a fill a random latency out, and
// checks the structural invariants: a read at or after its line's fill
// cycle always hits, a merge reports the first miss's fill cycle,
// reads+writes equal the access counter, and read outcomes sum to reads.
func TestRandomizedConsistency(t *testing.T) {
	c := New(Config{Size: 4096, Line: 64, Assoc: 4, Policy: WriteEvict})
	rng := rand.New(rand.NewSource(7))
	fills := map[uint64]int64{} // line base -> fill cycle, mirroring the MSHR table
	var reads, writes uint64
	var now int64
	for i := 0; i < 20000; i++ {
		now += int64(rng.Intn(4))
		addr := uint64(rng.Intn(1 << 14))
		lb := c.LineBase(addr)
		fillAt, inFlight := fills[lb]
		landed := inFlight && fillAt <= now
		if landed {
			delete(fills, lb)
		}
		if rng.Intn(4) == 0 {
			c.Write(addr, 0, now)
			writes++
			continue
		}
		reads++
		r, got := c.Read(addr, 0, now)
		switch {
		case landed && r != Hit:
			t.Fatalf("read at %d after the fill at %d = %v, want hit", now, fillAt, r)
		case r == Miss:
			if inFlight && !landed {
				t.Fatalf("miss on in-flight line %x", lb)
			}
			fills[lb] = now + 1 + int64(rng.Intn(200))
			c.Reserve(addr, 0, fills[lb])
		case r == HitReserved:
			if !inFlight || landed || got != fillAt {
				t.Fatalf("hit-reserved at %d with fill at %d, want an in-flight fill at %d (%v)", now, got, fillAt, inFlight)
			}
		}
	}
	st := c.Stats()
	if st.Reads != reads || st.Writes != writes {
		t.Errorf("counter drift: %+v vs reads=%d writes=%d", st, reads, writes)
	}
	if st.ReadHits+st.ReadMisses+st.ReadReserved != st.Reads {
		t.Error("read outcomes do not sum to total reads")
	}
}

// TestLineBaseProperty checks LineBase alignment and idempotence.
func TestLineBaseProperty(t *testing.T) {
	c := smallL1()
	f := func(addr uint64) bool {
		lb := c.LineBase(addr % (1 << 40))
		return lb%128 == 0 && c.LineBase(lb) == lb && lb <= addr%(1<<40)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
