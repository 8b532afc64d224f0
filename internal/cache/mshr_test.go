package cache

import (
	"math/rand"
	"testing"
)

// checkMSHR compares the table against the reference map: the same
// entry count, every reference entry reachable with its cycle, and
// absent keys absent.
func checkMSHR(t *testing.T, tbl *mshr, ref map[uint64]int64, absent []uint64, step int) {
	t.Helper()
	if tbl.n != len(ref) {
		t.Fatalf("step %d: %d entries, reference has %d", step, tbl.n, len(ref))
	}
	for k, want := range ref {
		if got, ok := tbl.get(k); !ok || got != want {
			t.Fatalf("step %d: get(%#x) = (%d, %v), want (%d, true)", step, k, got, ok, want)
		}
	}
	for _, k := range absent {
		if _, in := ref[k]; in {
			continue
		}
		if got, ok := tbl.get(k); ok {
			t.Fatalf("step %d: get(%#x) = (%d, true) for a key not in the table", step, k, got)
		}
	}
}

// TestMSHRMatchesMap drives random put/get/del sequences against a Go
// map. The first phase keeps at most 11 keys live in the initial 16-slot
// table, drawn mostly from keys whose home is one of its last slots, so
// probe runs wrap past the end and backward-shift deletes move entries
// across the wrap; the second phase draws from a wider pool, forcing
// growth and rehashing.
func TestMSHRMatchesMap(t *testing.T) {
	probe := mshr{}
	probe.grow()
	size := len(probe.slots)
	var tail []uint64 // keys homed in the last three slots
	for k := uint64(0); len(tail) < 12; k++ {
		if probe.home(k) >= size-3 {
			tail = append(tail, k)
		}
	}
	var other []uint64
	for k := uint64(1 << 40); len(other) < 8; k += 7 {
		if probe.home(k) < size-3 {
			other = append(other, k)
		}
	}
	phases := []struct {
		name    string
		pool    []uint64
		maxLive int
		steps   int
	}{
		{"wrap", append(append([]uint64{}, tail...), other...), 11, 4000},
		{"grow", nil, 1 << 30, 20000},
	}
	for i := 0; i < 300; i++ {
		phases[1].pool = append(phases[1].pool, uint64(i)<<2|uint64(i&1))
	}
	for _, ph := range phases {
		t.Run(ph.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(ph.pool))))
			var tbl mshr
			ref := map[uint64]int64{}
			wrapped := false
			for step := 0; step < ph.steps; step++ {
				k := ph.pool[rng.Intn(len(ph.pool))]
				_, live := ref[k]
				switch op := rng.Intn(10); {
				case op < 5 && (live || len(ref) < ph.maxLive):
					at := rng.Int63n(2000) - 1000 // any cycle but math.MinInt64
					tbl.put(k, at)
					ref[k] = at
				case op < 8:
					tbl.del(k)
					delete(ref, k)
				default:
					got, ok := tbl.get(k)
					if want, in := ref[k]; ok != in || got != want {
						t.Fatalf("step %d: get(%#x) = (%d, %v), want (%d, %v)", step, k, got, ok, want, in)
					}
				}
				checkMSHR(t, &tbl, ref, ph.pool, step)
				for i, s := range tbl.slots {
					if s.used() && i < tbl.home(s.key) {
						wrapped = true
					}
				}
			}
			if ph.name == "wrap" {
				if len(tbl.slots) != size {
					t.Errorf("wrap phase grew the table to %d slots; it must stay at %d", len(tbl.slots), size)
				}
				if !wrapped {
					t.Error("no entry ever sat past the end of the table: the wrap-around path went untested")
				}
			}
		})
	}
}
