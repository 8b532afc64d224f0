package engine

// Unit wall for the event queue itself (event.go): the zero-allocation
// contract of the steady-state schedule/pop pair, a fuzz target that
// drives randomized legal schedule sequences against a sort-based
// reference model, and a microbenchmark comparing the timing wheel with
// the reference heap. The whole-engine differential goldens live
// in queue_diff_test.go.

import (
	"slices"
	"testing"
)

// head peeks the earliest queued event without removing it or moving
// the pop cursor.
func (s *scheduler) head() (event, bool) {
	switch {
	case s.ref:
	case s.nFine > 0:
		for c := s.cur; ; c++ {
			if l := s.fine[c&wheelMask]; l.head != 0 {
				return s.nodes[l.head].ev, true
			}
		}
	case s.nCoarse > 0:
		// The next non-empty block: its list is in seq order within each
		// cycle but not across cycles, so take its earliest cycle's first
		// event.
		b := s.blk + 1
		for s.coarse[b&wheelMask].head == 0 {
			b++
		}
		i := s.coarse[b&wheelMask].head
		first := s.nodes[i].ev
		for ; i != 0; i = s.nodes[i].next {
			if e := s.nodes[i].ev; e.at < first.at {
				first = e
			}
		}
		return first, true
	}
	// Overflow events all sit past the coarse horizon, so with both
	// wheel levels empty the heap head is the queue head.
	if len(s.far) == 0 {
		return event{}, false
	}
	return s.far[0], true
}

func (s *scheduler) empty() bool { return s.nFine == 0 && s.nCoarse == 0 && len(s.far) == 0 }

// pairDelta is the schedule delta mix of the steady-state pair tests:
// mostly fine-level deltas that straddle the block edge, some coarse
// ones past the block, and every eighth past the ~65k-cycle coarse
// horizon into the overflow heap.
func pairDelta(i int64) int64 {
	switch i % 8 {
	case 7:
		return wheelSize*wheelSize + i%5000*13
	case 5, 6:
		return wheelSize + i%4000*7
	default:
		return 1 + i%300
	}
}

// TestEventQueueSchedulePopZeroAlloc pins the tentpole's core claim:
// once the node slab and overflow heap have grown to their
// steady-state capacities, a schedule/pop pair allocates nothing — for both the
// timing wheel and the reference heap (neither boxes events) — on a
// delta mix that reaches both wheel levels and the overflow heap.
func TestEventQueueSchedulePopZeroAlloc(t *testing.T) {
	for _, ref := range []bool{false, true} {
		name := "calendar" // the timing wheel is a two-level calendar queue
		if ref {
			name = "refheap"
		}
		t.Run(name, func(t *testing.T) {
			s := newScheduler(ref, 0)
			w := &warpState{}
			var now int64
			// Warm to steady state: the mixed deltas grow the node slab
			// and the overflow heap past what the measured loop needs.
			for i := int64(0); i < 4096; i++ {
				s.schedule(now+pairDelta(i), w)
				if i%2 == 0 {
					e, _ := s.next()
					now = e.at
				}
			}
			for !s.empty() {
				e, _ := s.next()
				now = e.at
			}
			i := int64(0)
			n := testing.AllocsPerRun(1000, func() {
				// The same delta mix as the warmup, so the pair exercises
				// fine and coarse links, overflow pushes, drains and cascades.
				s.schedule(now+pairDelta(i), w)
				e, _ := s.next()
				now = e.at
				i++
			})
			if n != 0 {
				t.Errorf("steady-state schedule/pop pair allocates %.1f times, want 0", n)
			}
		})
	}
}

// TestEventQueueInterleavedPeek pins the pop cursor against a push that
// lands behind a queued far-future event of the same bucket lap: after
// a peek at the leftover event, a push at a nearer cycle must still pop
// first.
func TestEventQueueInterleavedPeek(t *testing.T) {
	s := newScheduler(false, 0)
	w := &warpState{}
	s.schedule(10, w)  // seq 1
	s.schedule(200, w) // seq 2, same block, far ahead
	if e, ok := s.next(); !ok || e.at != 10 {
		t.Fatalf("first pop = (%d,%v), want cycle 10", e.at, ok)
	}
	if e, ok := s.head(); !ok || e.at != 200 {
		t.Fatalf("peek = (%d,%v), want cycle 200", e.at, ok)
	}
	s.schedule(11, w) // strictly future of the last pop, behind the peek
	if e, ok := s.next(); !ok || e.at != 11 {
		t.Fatalf("pop after interleaved push = (%d,%v), want cycle 11", e.at, ok)
	}
	if e, ok := s.next(); !ok || e.at != 200 {
		t.Fatalf("final pop = (%d,%v), want cycle 200", e.at, ok)
	}
}

// modelSort orders a model slice in (at, seq) order.
func modelSort(m []event) {
	slices.SortFunc(m, func(a, b event) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
}

// FuzzEventQueueOrder drives the scheduler with randomized legal
// schedule sequences — every push strictly future of the last pop,
// sequence numbers monotone in push order, hostile cycle deltas that
// straddle the block edge, the coarse horizon and the overflow heap —
// interleaved with peeks and pops, and checks every pop against a
// sort-based reference model. The per-bucket seq-sortedness argument in
// event.go is what this target keeps honest.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 1, 4, 10, 0, 200, 6, 0, 1, 3, 6, 0, 6, 0}, false)
	f.Add([]byte{2, 255, 2, 254, 6, 1, 0, 1, 5, 9, 6, 2, 7, 7}, false)
	f.Add([]byte{0, 1, 4, 10, 0, 200, 6, 0, 1, 3, 6, 0, 6, 0}, true)
	// Block edge: pushes on both sides of the next block boundary, popped
	// across the cascade with fine pushes in between.
	f.Add([]byte{3, 0, 3, 8, 3, 4, 0, 250, 6, 0, 3, 2, 5, 0, 6, 0, 0, 1, 6, 0}, false)
	// Coarse horizon: pushes just inside and just past the horizon, then
	// a far jump that drains the overflow heap into the coarse level.
	f.Add([]byte{4, 0, 4, 8, 4, 3, 4, 5, 6, 0, 5, 0, 4, 1, 6, 0, 6, 0, 6, 0}, false)
	// Overflow: deep pushes that only the heap holds, interleaved with
	// near and coarse pushes and a peek at each level.
	f.Add([]byte{8, 255, 8, 1, 8, 128, 0, 3, 2, 40, 5, 0, 6, 0, 5, 0, 6, 0, 8, 7, 5, 0, 6, 0}, false)
	f.Add([]byte{8, 255, 3, 1, 4, 2, 6, 0, 8, 1, 6, 0}, true)
	f.Fuzz(func(t *testing.T, data []byte, ref bool) {
		s := newScheduler(ref, 0)
		var model []event
		w := &warpState{}
		var now int64 // cycle of the last pop: the legality floor
		checkPop := func() {
			got, ok := s.next()
			if len(model) == 0 {
				if ok {
					t.Fatalf("queue popped (%d,%d) but the model is empty", got.at, got.seq)
				}
				return
			}
			if !ok {
				t.Fatalf("queue empty but the model holds %d events", len(model))
			}
			min := 0
			for i := 1; i < len(model); i++ {
				if model[i].at < model[min].at ||
					(model[i].at == model[min].at && model[i].seq < model[min].seq) {
					min = i
				}
			}
			want := model[min]
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("pop order diverges: got (%d,%d), want (%d,%d)", got.at, got.seq, want.at, want.seq)
			}
			model = append(model[:min], model[min+1:]...)
			now = got.at
		}
		push := func(at int64) {
			at = max(at, now+1)
			s.schedule(at, w)
			model = append(model, event{at: at, seq: s.seq})
		}
		// The block of the last pop is the wheel's current block.
		edge := func(blocks int64) int64 { return (now>>wheelBits + blocks) << wheelBits }
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 10 {
			case 0, 1: // near push: within one block span
				push(now + 1 + int64(arg))
			case 2: // far push: across several blocks
				push(now + 1 + int64(arg)*37)
			case 3: // block-edge-straddling push
				push(edge(1) - 4 + int64(arg%9))
			case 4: // coarse-horizon-straddling push
				push(edge(wheelSize) - 4 + int64(arg%9))
			case 8: // overflow push: up to four coarse horizons out
				push(now + 1 + int64(arg)<<(2*wheelBits-6))
			case 5: // peek: must match the model head and not disturb order
				got, ok := s.head()
				if ok != (len(model) > 0) {
					t.Fatalf("head ok=%v but model holds %d events", ok, len(model))
				}
				if ok {
					m := slices.Clone(model)
					modelSort(m)
					if got.at != m[0].at || got.seq != m[0].seq {
						t.Fatalf("head diverges: got (%d,%d), want (%d,%d)", got.at, got.seq, m[0].at, m[0].seq)
					}
				}
			default: // pop
				checkPop()
			}
		}
		for len(model) > 0 {
			checkPop()
		}
		if !s.empty() {
			t.Fatal("model drained but the queue reports non-empty")
		}
	})
}

// BenchmarkEventQueuePair measures the steady-state schedule/pop pair
// for both implementations on the pairDelta mix; the wheel's O(1) fast
// path is the half of the allocation diet that is pure speed rather
// than GC relief.
func BenchmarkEventQueuePair(b *testing.B) {
	for _, ref := range []bool{false, true} {
		name := "wheel"
		if ref {
			name = "refheap"
		}
		b.Run(name, func(b *testing.B) {
			s := newScheduler(ref, 0)
			w := &warpState{}
			var now int64
			for i := 0; i < 1024; i++ {
				s.schedule(now+1+int64(i%300), w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.schedule(now+pairDelta(int64(i)), w)
				e, _ := s.next()
				now = e.at
			}
		})
	}
}
