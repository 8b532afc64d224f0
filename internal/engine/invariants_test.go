package engine_test

// End-of-run conservation invariants. Byte-identity goldens prove the
// engine is deterministic; these prove that what it counts adds up:
// every cache access lands in exactly one outcome bucket, every DRAM
// read is an L2 miss and every L2 write a store, atomic or
// write-allocate re-write, the L2 never merges onto an in-flight fill,
// the L1 installs no more fills than it missed, interposer traffic
// never exceeds the DRAM traffic it is a subset of, every CTA is
// dispatched and retired exactly once, and the per-SM L1 records sum
// to the aggregate. The sweep covers every Table 2 app on every
// evaluation platform, monolithic and 2-die.

import (
	"fmt"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/cache"
	"ctacluster/internal/engine"
	"ctacluster/internal/workloads"
)

func TestConservationInvariants(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("full Table 2 × platform × die-count sweep; skipped under -short and -race")
	}
	var arches []*arch.Arch
	for _, ar := range arch.All() {
		chip, err := arch.WithChiplets(ar, 2)
		if err != nil {
			t.Fatal(err)
		}
		arches = append(arches, ar, chip)
	}
	for _, ar := range arches {
		for _, app := range workloads.Table2() {
			res, err := engine.Run(engine.DefaultConfig(ar), app)
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name(), ar.Name, err)
			}
			for _, v := range conservationViolations(res) {
				t.Errorf("%s/%s: %s", app.Name(), ar.Name, v)
			}
		}
	}
}

// conservationViolations lists every invariant res breaks.
func conservationViolations(res *engine.Result) []string {
	var out []string
	fail := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }

	l1 := res.L1
	if got := l1.ReadHits + l1.ReadReserved + l1.ReadMisses + l1.BypassedReads; l1.Reads != got {
		fail("L1 reads %d != hits+reserved+misses+bypassed %d", l1.Reads, got)
	}
	if got := l1.WriteHits + l1.WriteMisses; l1.Writes != got {
		fail("L1 writes %d != write hits+misses %d", l1.Writes, got)
	}
	l2 := res.L2
	if got := l2.ReadHits + l2.ReadReserved + l2.ReadMisses; l2.Reads != got {
		fail("L2 reads %d != hits+reserved+misses %d", l2.Reads, got)
	}
	if l1.Fills > l1.ReadMisses {
		fail("L1 fills %d > read misses %d", l1.Fills, l1.ReadMisses)
	}
	if l2.ReadReserved != 0 {
		fail("L2 reserved reads %d, want 0: the L2 fills synchronously", l2.ReadReserved)
	}
	if got := l2.ReadMisses + l2.WriteMisses; res.Mem.DRAMReads != got {
		fail("DRAM reads %d != L2 read+write misses %d", res.Mem.DRAMReads, got)
	}
	// mem.System.Write re-writes each write-allocated line to dirty it.
	if got := res.Mem.WriteTransactions + res.Mem.AtomicTransactions + l2.WriteMisses; l2.Writes != got {
		fail("L2 writes %d != write+atomic transactions + write misses %d", l2.Writes, got)
	}
	if res.Mem.RemoteL2Transactions > res.Mem.DRAMReads {
		fail("remote L2 transactions %d > DRAM reads %d", res.Mem.RemoteL2Transactions, res.Mem.DRAMReads)
	}

	seen := make([]int, len(res.CTAs))
	for sm, ids := range res.PerSM {
		for _, id := range ids {
			if id < 0 || id >= len(seen) {
				fail("SM %d lists CTA %d outside the grid of %d", sm, id, len(seen))
				continue
			}
			seen[id]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			fail("CTA %d appears %d times across PerSM, want exactly once", id, n)
		}
		if rec := res.CTAs[id]; rec.Retired < rec.Dispatched {
			fail("CTA %d retired at %d before its dispatch at %d", id, rec.Retired, rec.Dispatched)
		}
	}

	var sum cache.Stats
	for _, st := range res.L1PerSM {
		sum.Add(st)
	}
	if sum != l1 {
		fail("L1PerSM sums to %+v, aggregate is %+v", sum, l1)
	}
	return out
}
