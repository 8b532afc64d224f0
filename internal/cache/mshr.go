package cache

import (
	"math"
	"math/bits"
)

// mshr is a cache's MSHR table: line+sector key (pendKey) -> the cycle
// the line's in-flight fill lands. It is an open-addressed hash table
// with linear probing and backward-shift deletion, so lookups walk one
// short run of a flat array and deletes leave no tombstones. It grows by
// doubling at 3/4 load and is never bounded; nothing iterates it, so its
// layout cannot leak into a result.
type mshr struct {
	slots []mshrSlot // power-of-two length; nil until the first put
	shift uint       // 64 - log2(len(slots)): home keeps the hash's top bits
	n     int        // live entries
}

// mshrSlot is one table entry. The fill cycle is stored with its sign
// bit flipped (at ^ math.MinInt64), so zeroed memory is an empty slot
// and math.MinInt64, a cycle no fill can land at, is the one put
// rejects.
type mshrSlot struct {
	key uint64
	at  int64
}

func (s mshrSlot) used() bool { return s.at != 0 }

// home is key's preferred slot (Fibonacci hashing: pendKey's low bits
// are the sector, so the well-mixed high bits of the product index).
func (t *mshr) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns the slot holding key, or -1.
func (t *mshr) find(key uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(key); t.slots[i].used(); i = (i + 1) & mask {
		if t.slots[i].key == key {
			return i
		}
	}
	return -1
}

// get returns key's fill cycle and whether key is in flight.
func (t *mshr) get(key uint64) (int64, bool) {
	if i := t.find(key); i >= 0 {
		return t.slots[i].at ^ math.MinInt64, true
	}
	return 0, false
}

// put records (or overwrites) key's fill cycle.
func (t *mshr) put(key uint64, at int64) {
	if at == math.MinInt64 {
		panic("cache: fill cycle out of range")
	}
	at ^= math.MinInt64
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for ; t.slots[i].used(); i = (i + 1) & mask {
		if t.slots[i].key == key {
			t.slots[i].at = at
			return
		}
	}
	t.slots[i] = mshrSlot{key: key, at: at}
	t.n++
}

// del removes key if present. Each later entry of the probe run moves
// back into the hole unless that would put it before its home slot,
// which keeps every entry reachable from its home without tombstones.
func (t *mshr) del(key uint64) {
	i := t.find(key)
	if i < 0 {
		return
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].used(); j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = mshrSlot{}
	t.n--
}

// grow doubles the table (16 slots at first) and rehashes it.
func (t *mshr) grow() {
	old := t.slots
	size := max(2*len(old), 16)
	t.slots = make([]mshrSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, s := range old {
		if s.used() {
			t.put(s.key, s.at^math.MinInt64)
		}
	}
}
