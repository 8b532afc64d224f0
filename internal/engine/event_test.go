package engine

// Unit wall for the event queue itself (event.go): the zero-allocation
// contract of the steady-state schedule/pop pair, a fuzz target that
// drives randomized legal schedule sequences against a sort-based
// reference model, and a microbenchmark comparing the calendar queue
// with the reference heap. The whole-engine differential goldens live
// in queue_diff_test.go.

import (
	"slices"
	"testing"
)

// head peeks the earliest queued event without removing it or moving
// the pop cursor.
func (s *scheduler) head() (event, bool) {
	if s.ref || s.inBkt == 0 {
		// Far events all sit at or past the horizon when no bucket event
		// exists to undercut the heap head.
		if len(s.far) == 0 {
			return event{}, false
		}
		return s.far[0], true
	}
	for c := s.cur; ; c++ {
		if b := &s.bkt[c&bucketMask]; b.head < len(b.ev) {
			return b.ev[b.head], true
		}
	}
}

func (s *scheduler) empty() bool { return s.inBkt == 0 && len(s.far) == 0 }

// TestEventQueueSchedulePopZeroAlloc pins the tentpole's core claim:
// once the bucket ring and far heap have grown to their steady-state
// capacities, a schedule/pop pair allocates nothing — for both the
// calendar queue and the reference heap (neither boxes events).
func TestEventQueueSchedulePopZeroAlloc(t *testing.T) {
	for _, ref := range []bool{false, true} {
		name := "calendar"
		if ref {
			name = "refheap"
		}
		t.Run(name, func(t *testing.T) {
			s := newScheduler(ref)
			w := &warpState{}
			var now int64
			// Warm to steady state: mixed near/far deltas grow every bucket
			// and the far heap past what the measured loop needs.
			for i := 0; i < 4096; i++ {
				s.schedule(now+1+int64(i%300), w)
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
				// The same near/far delta mix as the warmup, so the pair
				// exercises bucket appends, far pushes and rebases.
				s.schedule(now+1+i%300, w)
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
	s := newScheduler(false)
	w := &warpState{}
	s.schedule(10, w)  // seq 1
	s.schedule(200, w) // seq 2, same bucket lap, far ahead
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

// popAllSorted drains a model slice in (at, seq) order.
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
// straddle the bucket horizon — interleaved with peeks and pops, and
// checks every pop against a sort-based reference model. The per-bucket
// seq-sortedness argument in event.go is what this target keeps honest.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 1, 4, 10, 0, 200, 6, 0, 1, 3, 6, 0, 6, 0}, false)
	f.Add([]byte{2, 255, 2, 254, 6, 1, 0, 1, 5, 9, 6, 2, 7, 7}, false)
	f.Add([]byte{0, 1, 4, 10, 0, 200, 6, 0, 1, 3, 6, 0, 6, 0}, true)
	f.Fuzz(func(t *testing.T, data []byte, ref bool) {
		s := newScheduler(ref)
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
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 8 {
			case 0, 1: // near push: inside the bucket span
				s.schedule(now+1+int64(arg), w)
				model = append(model, event{at: now + 1 + int64(arg), seq: s.seq})
			case 2, 3: // far push: usually past the horizon
				at := now + 1 + int64(arg)*37
				s.schedule(at, w)
				model = append(model, event{at: at, seq: s.seq})
			case 4: // horizon-straddling push
				at := now + int64(bucketCount) - 4 + int64(arg%9)
				s.schedule(at, w)
				model = append(model, event{at: at, seq: s.seq})
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
// for both implementations; the calendar queue's O(1) fast path is the
// half of the allocation diet that is pure speed rather than GC relief.
func BenchmarkEventQueuePair(b *testing.B) {
	for _, ref := range []bool{false, true} {
		name := "calendar"
		if ref {
			name = "refheap"
		}
		b.Run(name, func(b *testing.B) {
			s := newScheduler(ref)
			w := &warpState{}
			var now int64
			for i := 0; i < 1024; i++ {
				s.schedule(now+1+int64(i%300), w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.schedule(now+1+int64(i%300), w)
				e, _ := s.next()
				now = e.at
			}
		})
	}
}
