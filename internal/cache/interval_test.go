package cache

// Interval-snapshot conservation: the profiler's counter registry reads
// cumulative Stats at a period; some consumers instead snapshot-and-
// reset. Either way, no access may be lost or double-counted — the sum
// of interval deltas must equal the totals an unreset mirror cache
// accumulates over the identical stream, for every interval length and
// both write policies.

import "testing"

// driveAccess applies step i of a deterministic mixed stream (reads,
// writes, bypasses, and a fill reserved 50 cycles out on each read
// miss, with step i at cycle i) to c.
func driveAccess(c *Cache, i int) {
	addr := uint64((i * 97) % 4096 * 32) // reuse within a 4 KB window
	sector := 0
	if c.Config().Sectors > 1 {
		sector = i % c.Config().Sectors
	}
	switch i % 5 {
	case 0, 1, 2:
		if r, _ := c.Read(addr, sector, int64(i)); r == Miss {
			c.Reserve(addr, sector, int64(i)+50)
		}
	case 3:
		c.Write(addr, sector, int64(i))
	case 4:
		c.BypassRead()
	}
}

func TestIntervalSnapshotsConserveTotals(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"write-evict-l1", Config{Size: 16 * 1024, Line: 128, Assoc: 4, Sectors: 1, Policy: WriteEvict}},
		{"sectored-l1", Config{Size: 16 * 1024, Line: 128, Assoc: 4, Sectors: 2, Policy: WriteEvict}},
		{"write-back-l2", Config{Size: 32 * 1024, Line: 32, Assoc: 8, Sectors: 1, Policy: WriteBackAllocate}},
	}
	intervals := []int{1, 7, 100, 1000, 5000}
	const steps = 3000

	for _, c := range cfgs {
		for _, interval := range intervals {
			sampled := New(c.cfg)
			mirror := New(c.cfg)

			var sum Stats
			snaps := 0
			for i := 0; i < steps; i++ {
				driveAccess(sampled, i)
				driveAccess(mirror, i)
				if (i+1)%interval == 0 {
					st := sampled.Stats()
					sampled.ResetStats()
					sum.Add(st)
					snaps++
				}
			}
			// Close the final partial interval.
			sum.Add(sampled.Stats())

			if want := mirror.Stats(); sum != want {
				t.Errorf("%s interval %d: summed snapshots != mirror totals\n  sum:    %+v\n  mirror: %+v",
					c.name, interval, sum, want)
			}
			if interval <= steps && snaps == 0 {
				t.Errorf("%s interval %d: no snapshots taken", c.name, interval)
			}
		}
	}
}

// TestSubInvertsAdd pins Sub as the exact inverse of Add over every
// counter — the identity IntervalDeltas in internal/prof relies on.
func TestSubInvertsAdd(t *testing.T) {
	a := Stats{Reads: 10, Writes: 9, ReadHits: 8, ReadReserved: 7, ReadMisses: 6,
		WriteHits: 5, WriteMisses: 4, BypassedReads: 3, Evictions: 2, Writebacks: 1, Fills: 11}
	b := Stats{Reads: 100, Writes: 90, ReadHits: 80, ReadReserved: 70, ReadMisses: 60,
		WriteHits: 50, WriteMisses: 40, BypassedReads: 30, Evictions: 20, Writebacks: 10, Fills: 110}
	sum := a
	sum.Add(b)
	if got := sum.Sub(a); got != b {
		t.Errorf("(a+b)-a = %+v, want %+v", got, b)
	}
	if got := sum.Sub(b); got != a {
		t.Errorf("(a+b)-b = %+v, want %+v", got, a)
	}
	var zero Stats
	if got := a.Sub(a); got != zero {
		t.Errorf("a-a = %+v, want zero", got)
	}
}
