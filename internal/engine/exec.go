package engine

import (
	"ctacluster/internal/cache"
	"ctacluster/internal/kernel"
	"ctacluster/internal/prof"
)

// mlpWindow is the number of loads a warp can keep in flight before it
// must wait (the LSU queue depth / scoreboard size).
const mlpWindow = 6

// emitStall records a warp blocking until the given cycle. Callers
// guard with s.prof != nil so the disabled path stays branch-only.
func (s *sim) emitStall(w *warpState, reason prof.StallReason, until int64) {
	dur := until - s.now
	if dur < 0 {
		dur = 0
	}
	s.prof.Emit(prof.Event{
		Kind: prof.EvWarpStall, Tag: uint8(reason),
		SM: int32(w.cta.sm.id), CTA: int32(w.cta.rec.CTA), Warp: int32(w.id),
		Slot: int32(w.cta.rec.Slot), Cycle: s.now, Dur: dur,
	})
}

// emitMemOp records one completed warp memory instruction.
func (s *sim) emitMemOp(w *warpState, class prof.MemClass, addr uint64, issue, done int64, write bool) {
	s.prof.Emit(prof.Event{
		Kind: prof.EvMemOp, Tag: uint8(class), Write: write,
		SM: int32(w.cta.sm.id), CTA: int32(w.cta.rec.CTA), Warp: int32(w.id),
		Slot: int32(w.cta.rec.Slot), Cycle: issue, Dur: done - issue, Addr: addr,
	})
}

// step executes the next op of warp w at the current cycle.
func (s *sim) step(w *warpState) {
	if w.done {
		return
	}
	cta := w.cta
	sm := cta.sm
	if w.pc >= len(w.ops) {
		// Drain outstanding loads before the warp can finish.
		if w.pendDone > s.now {
			d := w.pendDone
			w.pendDone = 0
			w.outstanding = 0
			if s.prof != nil {
				s.emitStall(w, prof.StallTraceEnd, d)
			}
			s.q.schedule(d, w)
			return
		}
		s.finishWarp(w)
		return
	}
	op := w.ops[w.pc]

	// Barriers, stores and atomics consume loaded values: drain the
	// load window first.
	if drains(op) && w.pendDone > s.now {
		d := w.pendDone
		w.pendDone = 0
		w.outstanding = 0
		if s.prof != nil {
			s.emitStall(w, prof.StallDrain, d)
		}
		s.q.schedule(d, w)
		return
	}
	w.pc++

	issue := s.now
	if sm.issueFree > issue {
		issue = sm.issueFree
	}
	sm.issueFree = issue + issueInterval

	switch op.Kind {
	case kernel.OpCompute:
		c := int64(op.Cycles)
		if c < 1 {
			c = 1
		}
		s.q.schedule(issue+c, w)

	case kernel.OpBarrier:
		cta.barWait++
		if cta.barWait >= cta.live {
			release := issue + barrierLatency
			cta.barWait = 0
			for _, peer := range cta.barBlocked {
				s.q.schedule(release, peer)
			}
			cta.barBlocked = cta.barBlocked[:0]
			s.q.schedule(release, w)
		} else {
			cta.barBlocked = append(cta.barBlocked, w)
		}

	case kernel.OpMem:
		done := s.memAccess(sm, cta, op.Mem, issue)
		if s.prof != nil {
			class := prof.MemLoad
			switch {
			case op.Mem.Prefetch:
				class = prof.MemPrefetch
			case op.Mem.Write:
				class = prof.MemStore
			}
			s.emitMemOp(w, class, op.Mem.Base, issue, done, op.Mem.Write)
		}
		if op.Mem.Prefetch || op.Mem.Write {
			// Prefetches and stores are fire-and-forget.
			s.q.schedule(issue+1, w)
			break
		}
		cta.rec.MemLatency += done - issue
		cta.rec.MemOps++
		w.outstanding++
		if done > w.pendDone {
			w.pendDone = done
		}
		if w.outstanding >= mlpWindow {
			// Window full: wait for the whole batch.
			d := w.pendDone
			w.pendDone = 0
			w.outstanding = 0
			if s.prof != nil {
				s.emitStall(w, prof.StallWindowFull, d)
			}
			s.q.schedule(d, w)
		} else {
			s.q.schedule(issue+1, w)
		}

	case kernel.OpAtomic:
		done := s.memsys.Atomic(issue, sm.id, op.Mem.Base)
		if s.prof != nil {
			s.emitMemOp(w, prof.MemAtomic, op.Mem.Base, issue, done, true)
		}
		s.q.schedule(done, w)
	}
}

// drains reports whether an op consumes in-flight load results.
func drains(op kernel.Op) bool {
	switch op.Kind {
	case kernel.OpBarrier, kernel.OpAtomic:
		return true
	case kernel.OpMem:
		return op.Mem.Write
	default:
		return false
	}
}

func (s *sim) finishWarp(w *warpState) {
	w.done = true
	w.ops = nil // the slab retains w; don't let it pin the trace too
	cta := w.cta
	cta.live--
	if cta.live == 0 {
		s.retire(cta, s.now)
		return
	}
	// A finishing warp may satisfy a barrier its peers are waiting at.
	if cta.barWait > 0 && cta.barWait >= cta.live {
		release := s.now + barrierLatency
		cta.barWait = 0
		for _, peer := range cta.barBlocked {
			s.q.schedule(release, peer)
		}
		cta.barBlocked = cta.barBlocked[:0]
	}
}

func lineKey(lineBase uint64, sector int) uint64 {
	return lineBase<<1 | uint64(sector&1)
}

// emitL1 records one L1-line access outcome.
func (s *sim) emitL1(sm *smState, cta *ctaState, addr uint64, res cache.Result, at int64, write bool) {
	s.prof.Emit(prof.Event{
		Kind: prof.EvCacheAccess, Tag: uint8(res), Write: write,
		SM: int32(sm.id), CTA: int32(cta.rec.CTA), Warp: -1,
		Slot: int32(cta.rec.Slot), Cycle: at, Addr: addr,
	})
}

// memAccess routes one warp memory op through the hierarchy and returns
// the absolute completion time: the SM's L1 and pending-fill table
// first, then the shared NoC/L2/DRAM system on a miss, bypass or store.
func (s *sim) memAccess(sm *smState, cta *ctaState, m kernel.MemOp, issue int64) int64 {
	ar := s.ar
	if m.Write {
		// Write-evict: invalidate any cached copy per L1 line, then
		// forward the coalesced 32B segments to L2. Completed-but-
		// unapplied fills must land first so the invalidation sees them.
		if s.cfg.L1Enabled && !m.Bypass {
			sector := s.sectorFor(cta)
			s.txBuf = m.AppendTransactions(s.txBuf[:0], ar.L1Line)
			for _, a := range s.txBuf {
				key := lineKey(a/uint64(ar.L1Line), sector)
				if fd, ok := sm.pendFills[key]; ok && fd <= issue {
					sm.l1.Fill(a, sector)
					delete(sm.pendFills, key)
				}
				res := sm.l1.Write(a, sector)
				if s.prof != nil {
					s.emitL1(sm, cta, a, res, issue, true)
				}
			}
		}
		done := issue + storeAckLatency
		s.txBuf = m.AppendTransactions(s.txBuf[:0], ar.L2Line)
		for _, a := range s.txBuf {
			if t := s.memsys.Write(issue, sm.id, a, ar.L2Line); t > done {
				_ = t // stores are fire-and-forget; bank pressure still applied
			}
		}
		return done
	}

	// Read path.
	if !s.cfg.L1Enabled || m.Bypass {
		done := issue
		s.txBuf = m.AppendTransactions(s.txBuf[:0], ar.L2Line)
		for _, a := range s.txBuf {
			res := sm.l1.BypassRead()
			if s.prof != nil {
				s.emitL1(sm, cta, a, res, issue, false)
			}
			if t := s.memsys.Read(issue, sm.id, a, ar.L2Line); t > done {
				done = t
			}
		}
		if m.Prefetch {
			return issue + 1
		}
		return done
	}

	sector := s.sectorFor(cta)
	done := issue
	s.txBuf = m.AppendTransactions(s.txBuf[:0], ar.L1Line)
	for _, a := range s.txBuf {
		key := lineKey(a/uint64(ar.L1Line), sector)
		if fd, ok := sm.pendFills[key]; ok && fd <= issue {
			sm.l1.Fill(a, sector)
			delete(sm.pendFills, key)
		}
		var t int64
		res := sm.l1.Read(a, sector)
		if s.prof != nil {
			s.emitL1(sm, cta, a, res, issue, false)
		}
		switch res {
		case cache.Hit:
			t = issue + int64(ar.L1Latency)
		case cache.HitReserved:
			// Hit-reserved: the data is on the fly; the warp waits for
			// the outstanding fill (Section 3.1-(1)).
			t = sm.pendFills[key]
			if lo := issue + int64(ar.L1Latency); lo > t {
				t = lo
			}
		case cache.Miss:
			base, nbytes := a, ar.L1Line
			if ar.L1Sectored {
				// The unified cache fetches the two 32B sectors of the
				// 64B pair, producing two L2 transactions per miss.
				base = a &^ 63
				nbytes = 2 * ar.L2Line
			}
			fd := s.memsys.Read(issue, sm.id, base, nbytes)
			sm.pendFills[key] = fd
			t = fd
		}
		if t > done {
			done = t
		}
	}
	return done
}

// sectorFor maps a CTA to its private L1/Tex sector on Maxwell/Pascal
// (the paper speculates sectors are private to particular CTA slots
// under a fixed mapping); unsectored architectures always use sector 0.
func (s *sim) sectorFor(cta *ctaState) int {
	if !s.ar.L1Sectored {
		return 0
	}
	return cta.rec.Slot & 1
}
