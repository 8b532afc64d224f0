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
	for w.pc >= len(w.ops) && sm.more[cta.rec.Slot] != nil {
		s.refill(cta)
	}
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
	op := &w.ops[w.pc]

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
		// A gather or scatter is one instruction with its lane ops:
		// they are coalesced here and never issued on their own.
		lanes := w.ops[w.pc:]
		if op.Mem.Gather {
			w.pc += kernel.LaneOps(int(op.Mem.Lanes))
		}
		done := s.memAccess(sm, cta, &op.Mem, lanes, issue)
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

// refill extends the traces of cta's warps with the next chunk of its
// continuation, when one of them has run out of ops. Each warp's
// consumed prefix is dropped from the slot's buffer first, so the
// buffer holds only the ops not yet executed, and a warp that lags
// behind keeps them in front of the new chunk. The warps see the same
// op sequence as if the whole trace had been generated at dispatch,
// and the step goes on at once: a chunk boundary costs no cycle and no
// drain of the load window.
func (s *sim) refill(cta *ctaState) {
	sm, slot := cta.sm, cta.rec.Slot
	buf := sm.bufs[slot]
	for _, w := range cta.warps {
		buf[w.id] = w.ops[:copy(w.ops, w.ops[w.pc:])]
		w.pc = 0
	}
	buf, ok := sm.more[slot](buf)
	if !ok {
		sm.more[slot] = nil
	}
	sm.bufs[slot] = buf
	for _, w := range cta.warps {
		w.ops = buf[w.id]
	}
}

// drains reports whether an op consumes in-flight load results.
func drains(op *kernel.Op) bool {
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

// emitL1 records one L1-line access outcome.
func (s *sim) emitL1(sm *smState, cta *ctaState, addr uint64, res cache.Result, at int64, write bool) {
	s.prof.Emit(prof.Event{
		Kind: prof.EvCacheAccess, Tag: uint8(res), Write: write,
		SM: int32(sm.id), CTA: int32(cta.rec.CTA), Warp: -1,
		Slot: int32(cta.rec.Slot), Cycle: at, Addr: addr,
	})
}

// memAccess routes one warp memory op through the hierarchy and returns
// the absolute completion time: the SM's L1 and its MSHR table of
// in-flight fills first, then the shared NoC/L2/DRAM system on a miss,
// bypass or store. lanes is the trace after the op, which holds a
// gather's or scatter's lane addresses.
func (s *sim) memAccess(sm *smState, cta *ctaState, m *kernel.MemOp, lanes []kernel.Op, issue int64) int64 {
	ar := s.ar
	if m.Write {
		// Write-evict: invalidate any cached copy per L1 line (the L1
		// installs fills landed by issue first, so the invalidation sees
		// them), then forward the coalesced 32B segments to L2.
		if s.cfg.L1Enabled && !m.Bypass {
			sector := s.sectorFor(cta)
			s.txBuf = m.AppendTransactions(s.txBuf[:0], lanes, ar.L1Line)
			for _, a := range s.txBuf {
				res := sm.l1.Write(a, sector, issue)
				if s.prof != nil {
					s.emitL1(sm, cta, a, res, issue, true)
				}
			}
		}
		done := issue + storeAckLatency
		s.txBuf = m.AppendTransactions(s.txBuf[:0], lanes, ar.L2Line)
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
		s.txBuf = m.AppendTransactions(s.txBuf[:0], lanes, ar.L2Line)
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
	s.txBuf = m.AppendTransactions(s.txBuf[:0], lanes, ar.L1Line)
	for _, a := range s.txBuf {
		var t int64
		res, fillAt := sm.l1.Read(a, sector, issue)
		if s.prof != nil {
			s.emitL1(sm, cta, a, res, issue, false)
		}
		switch res {
		case cache.Hit:
			t = issue + int64(ar.L1Latency)
		case cache.HitReserved:
			// Hit-reserved: the data is on the fly; the warp waits for
			// the outstanding fill (Section 3.1-(1)).
			t = fillAt
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
			t = s.memsys.Read(issue, sm.id, base, nbytes)
			sm.l1.Reserve(a, sector, t)
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
