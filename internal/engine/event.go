package engine

// The engine's event queue. Two disciplines share the scheduler
// front-end:
//
//   - The default is a two-level calendar queue: a ring of bucketCount
//     cycle buckets over a typed binary heap. Events within the bucket
//     horizon [base, base+bucketCount) land in the bucket of their cycle
//     with an O(1) append and pop back out with an O(1) cursor scan; only
//     events beyond the horizon pay the heap's O(log n) sift. Because the
//     engine consumes events in nondecreasing cycle order and every
//     schedule call is strictly future of the last pop (every model
//     latency is at least one cycle), each bucket is appended in
//     increasing seq order — see the invariant argument below — so a
//     bucket never needs sorting or heap repair. Nothing boxes: pushes
//     and pops move flat event values, so the steady-state queue cost is
//     zero allocations (pinned by TestEventQueueSchedulePopZeroAlloc and
//     the alloc budget table).
//
//   - The reference discipline routes everything through the typed
//     binary min-heap ordered by (at, seq): semantically the pre-diet
//     container/heap queue without the interface{} boxing. It is a test
//     oracle only — reachable through the unexported run hook that
//     export_test.go exposes — and the differential wall
//     (queue_diff_test.go, FuzzEventQueueOrder) holds the calendar queue
//     to its pop order.
//
// Per-bucket seq-sortedness invariant. A bucket receives appends from
// two sources, and each appends in increasing seq order with every
// later source's seqs larger than every earlier one's:
//
//  1. Horizon drains (rebase): the heap pops in (at, seq) order, so the
//     events drained into one bucket (= one cycle) arrive in increasing
//     seq order. A rebase only runs when every bucket is empty, so two
//     drains never interleave within one bucket lap.
//  2. Direct pushes: the seq counter is monotone, so any direct push
//     carries a seq above every seq already queued anywhere.
//
// Pops therefore read each bucket front to back and get (at, seq) order
// for free; FuzzEventQueueOrder drives randomized legal schedules against
// a sort-based model to keep the argument honest.

// event is one schedulable occurrence: a warp becoming ready to issue
// its next op at a given cycle.
type event struct {
	at   int64
	seq  uint64 // tie-break for determinism
	warp *warpState
}

// eventHeap is a typed binary min-heap of events ordered by (at, seq).
// It is the far tier of the calendar queue and, alone, the whole
// reference discipline. No interface{} crosses its API: push and pop
// sift flat event values in place.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the warp pointer for the GC
	*h = q[:n]
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && q.less(r, l) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top
}

// bucketCount is the calendar span in cycles: a power of two so the
// bucket of a cycle is a mask, and wide enough that the common
// continuations (issue, L1 hit, L2 hit) land in buckets. Correctness
// never depends on the span — a far event just waits in the heap until
// a rebase — only the O(1) fast path does.
const (
	bucketCount = 256
	bucketMask  = bucketCount - 1
)

// eventBucket holds the queued events of one cycle in seq order; head
// indexes the first unpopped entry. Emptying a bucket resets it to its
// full capacity, so steady state recycles the same backing arrays.
type eventBucket struct {
	ev   []event
	head int
}

// scheduler is the run's event queue plus its tie-break counter.
type scheduler struct {
	seq uint64

	// Calendar tier: bkt[c&bucketMask] holds cycle c's events for
	// c in [base, base+bucketCount); far holds everything at or past the
	// horizon. cur is the pop cursor: no queued bucket event is at a
	// cycle below it. inBkt counts bucketed events.
	bkt   []eventBucket
	far   eventHeap
	base  int64
	cur   int64
	inBkt int

	// ref routes every push and pop through the far heap alone — the
	// reference (pre-diet) queue discipline (see run).
	ref bool
}

func newScheduler(ref bool) scheduler {
	s := scheduler{ref: ref}
	if !ref {
		s.bkt = make([]eventBucket, bucketCount)
	}
	return s
}

// push routes one event to its tier. The bucket append relies on the
// per-bucket seq-sortedness invariant documented at the top of the file.
func (s *scheduler) push(e event) {
	if !s.ref && e.at < s.base+bucketCount {
		b := &s.bkt[e.at&bucketMask]
		b.ev = append(b.ev, e)
		// e.at > cur >= base always — every push is strictly future of
		// the last pop, whose cycle cur holds — so the ring mapping stays
		// unaliased and the pop scan cannot pass this bucket.
		s.inBkt++
		return
	}
	s.far.push(e)
}

// rebase jumps the calendar to the heap's head cycle and drains every
// event within the new horizon into its bucket. It runs only when all
// buckets are empty, so each bucket receives at most one drain per lap.
func (s *scheduler) rebase() {
	s.base = s.far[0].at
	s.cur = s.base
	horizon := s.base + bucketCount
	for len(s.far) > 0 && s.far[0].at < horizon {
		e := s.far.pop()
		b := &s.bkt[e.at&bucketMask]
		b.ev = append(b.ev, e)
		s.inBkt++
	}
}

// schedule enqueues w with the next sequence number. The engine runs
// on a single scheduler, so the counter is exactly the global
// schedule-call order the (at, seq) tie-break needs for determinism.
func (s *scheduler) schedule(at int64, w *warpState) {
	s.seq++
	s.push(event{at: at, seq: s.seq, warp: w})
}

// next pops the earliest queued event in (at, seq) order.
func (s *scheduler) next() (event, bool) {
	if s.ref {
		if len(s.far) == 0 {
			return event{}, false
		}
		return s.far.pop(), true
	}
	if s.inBkt == 0 {
		if len(s.far) == 0 {
			return event{}, false
		}
		s.rebase()
	}
	for {
		b := &s.bkt[s.cur&bucketMask]
		if b.head < len(b.ev) {
			e := b.ev[b.head]
			b.ev[b.head].warp = nil // drop for the GC until the slot recycles
			b.head++
			if b.head == len(b.ev) {
				b.ev = b.ev[:0]
				b.head = 0
			}
			s.inBkt--
			return e, true
		}
		// Every queued bucket event sits at or above cur (pushes are
		// strictly future of the last pop), so skipping an empty cycle
		// never passes one; inBkt > 0 bounds the scan to the span.
		s.cur++
	}
}
