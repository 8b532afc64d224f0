package engine

// The engine's event queue. Two disciplines share the scheduler
// front-end:
//
//   - The default is a two-level timing wheel over an overflow heap.
//     Time is cut into aligned blocks of wheelSize cycles. The fine
//     level has one bucket per cycle of the current block (at>>wheelBits
//     == blk); the coarse level has one bucket per block for the next
//     wheelSize-1 blocks (~65k cycles). Only events past that coarse
//     horizon go to a typed binary heap. Every bucket is a linked list
//     threaded through one pooled node slab, so a push is an O(1) tail
//     link, a pop an O(1) head unlink plus a cursor scan, and nothing
//     allocates per bucket: the slab peaks at the number of queued
//     events (at most one per resident warp) and its free list recycles
//     nodes. When the fine level empties, the queue advances to the next
//     non-empty block: it first drains the heap up to the new horizon
//     into the coarse buckets that just came into range, then cascades
//     that block's coarse list into the fine buckets in list order.
//     Steady state is zero allocations (pinned by
//     TestEventQueueSchedulePopZeroAlloc and the alloc budget table).
//
//   - The reference discipline routes everything through the typed
//     binary min-heap ordered by (at, seq): semantically the pre-diet
//     container/heap queue without the interface{} boxing. It is a test
//     oracle only — reachable through the unexported run hook that
//     export_test.go exposes — and the differential wall
//     (queue_diff_test.go, FuzzEventQueueOrder) holds the wheel to its
//     pop order.
//
// Per-bucket seq-sortedness invariant. The engine consumes events in
// nondecreasing cycle order and every schedule call is strictly future
// of the last pop (every model latency is at least one cycle). Each
// list is appended in increasing seq order, with every later source's
// seqs above every earlier one's:
//
//  1. Coarse bucket of block B. Until B comes within the coarse horizon
//     every event of B goes to the heap. The advance that brings B into
//     range drains all of them at once, and the heap pops in (at, seq)
//     order. Only after that can a direct push reach B, and the seq
//     counter is monotone, so each direct push carries a seq above
//     every seq already queued anywhere. Within any one cycle of B the
//     list is therefore in seq order.
//  2. Fine bucket of cycle c. The fine level is empty when block B is
//     cascaded into it, so c's bucket first receives B's events of
//     cycle c in list order, which is seq order by (1). Direct pushes
//     follow with larger seqs.
//
// Pops therefore read each fine bucket front to back and get (at, seq)
// order with no sorting; FuzzEventQueueOrder drives randomized legal
// schedules across the block edge and the coarse horizon against a
// sort-based model to keep the argument honest.

// event is one schedulable occurrence: a warp becoming ready to issue
// its next op at a given cycle.
type event struct {
	at   int64
	seq  uint64 // tie-break for determinism
	warp *warpState
}

// eventHeap is a typed binary min-heap of events ordered by (at, seq).
// It is the overflow tier of the timing wheel and, alone, the whole
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

// wheelSize is the bucket count of each wheel level: a power of two so
// the bucket of a cycle (or block) is a mask. The fine level spans one
// block of wheelSize cycles, which covers issue and L1-hit
// continuations (L1Latency is 91–132 cycles); the coarse level spans
// wheelSize-1 further blocks, far past any L2 hit (240–374 cycles) or
// queued miss. Correctness never depends on the span — an overflow
// event just waits in the heap until its block comes into range — only
// the O(1) fast path does.
const (
	wheelBits = 8
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// node is one queued event in the slab; next links the rest of its
// bucket (or of the free list). Index 0 is a sentinel, so 0 means nil
// and a zero list is empty.
type node struct {
	ev   event
	next int32
}

// list is one bucket: a FIFO of slab nodes.
type list struct{ head, tail int32 }

// scheduler is the run's event queue plus its tie-break counter.
type scheduler struct {
	seq uint64

	// The wheel: fine[c&wheelMask] holds the events of cycle c of block
	// blk; coarse[b&wheelMask] holds those of block b in
	// (blk, blk+wheelSize); far holds everything past that horizon. cur
	// is the pop cursor: no fine event is at a cycle below it.
	nodes   []node
	free    int32 // head of the free-node list; 0 = empty
	fine    [wheelSize]list
	coarse  [wheelSize]list
	blk     int64
	cur     int64
	nFine   int
	nCoarse int
	far     eventHeap

	// Pushes per wheel tier, for the tier tests (export_test.go).
	pushFine, pushCoarse, pushFar uint64

	// ref routes every push and pop through the far heap alone — the
	// reference (pre-diet) queue discipline (see run).
	ref bool
}

// newScheduler returns an empty queue whose node slab is presized for
// queued events (one per resident warp at most; more just grow it).
func newScheduler(ref bool, queued int) scheduler {
	s := scheduler{ref: ref}
	if !ref {
		s.nodes = make([]node, 1, queued+1)
	}
	return s
}

// link appends e to bucket l in a node taken from the free list or the
// slab's tail.
func (s *scheduler) link(l *list, e event) {
	i := s.free
	if i != 0 {
		s.free = s.nodes[i].next
		s.nodes[i] = node{ev: e}
	} else {
		i = int32(len(s.nodes))
		s.nodes = append(s.nodes, node{ev: e})
	}
	s.put(l, i)
}

// put links node i, whose next is 0, at the tail of bucket l.
func (s *scheduler) put(l *list, i int32) {
	if l.tail == 0 {
		l.head = i
	} else {
		s.nodes[l.tail].next = i
	}
	l.tail = i
}

// push routes one event to its tier. The appends rely on the per-bucket
// seq-sortedness invariant documented at the top of the file.
func (s *scheduler) push(e event) {
	if s.ref {
		s.far.push(e)
		return
	}
	// e.at > cur always — every push is strictly future of the last
	// pop, whose cycle cur holds — so b >= blk and a fine push lands
	// ahead of the pop scan.
	switch b := e.at >> wheelBits; {
	case b == s.blk:
		s.pushFine++
		s.nFine++
		s.link(&s.fine[e.at&wheelMask], e)
	case b < s.blk+wheelSize:
		s.pushCoarse++
		s.nCoarse++
		s.link(&s.coarse[b&wheelMask], e)
	default:
		s.pushFar++
		s.far.push(e)
	}
}

// advance moves the wheel to the next non-empty block once the fine
// level is empty, and reports false if nothing is queued at all.
func (s *scheduler) advance() bool {
	switch {
	case s.nCoarse > 0:
		// Overflow events all sit past the coarse horizon, so the next
		// block is a coarse one.
		for s.blk++; s.coarse[s.blk&wheelMask].head == 0; s.blk++ {
		}
	case len(s.far) > 0:
		s.blk = s.far[0].at >> wheelBits
	default:
		return false
	}
	s.cur = s.blk << wheelBits
	// Drain the blocks that just came into range, in (at, seq) order,
	// before any direct push can reach them.
	horizon := (s.blk + wheelSize) << wheelBits
	for len(s.far) > 0 && s.far[0].at < horizon {
		e := s.far.pop()
		s.nCoarse++
		s.link(&s.coarse[(e.at>>wheelBits)&wheelMask], e)
	}
	// Cascade the block's coarse list into the fine buckets, relinking
	// its nodes in list order.
	c := &s.coarse[s.blk&wheelMask]
	for i := c.head; i != 0; {
		n := &s.nodes[i]
		next := n.next
		n.next = 0
		s.put(&s.fine[n.ev.at&wheelMask], i)
		s.nCoarse--
		s.nFine++
		i = next
	}
	*c = list{}
	return true
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
	if s.nFine == 0 && !s.advance() {
		return event{}, false
	}
	// Every fine event sits at or above cur, so skipping an empty cycle
	// never passes one; nFine > 0 bounds the scan to the block.
	l := &s.fine[s.cur&wheelMask]
	for l.head == 0 {
		s.cur++
		l = &s.fine[s.cur&wheelMask]
	}
	i := l.head
	n := &s.nodes[i]
	e := n.ev
	if l.head = n.next; l.head == 0 {
		l.tail = 0
	}
	n.ev.warp = nil // drop for the GC until the node recycles
	n.next = s.free
	s.free = i
	s.nFine--
	return e, true
}
