package engine

import (
	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
	"ctacluster/internal/prof"
)

// Pipeline constants (cycles). These are not per-architecture in the
// paper; they model generic SM front-end costs.
const (
	issueInterval   = 1 // instructions issued per SM per cycle
	barrierLatency  = 8 // __syncthreads release cost
	storeAckLatency = 4 // stores are fire-and-forget past the LSU
	dispatchLatency = 12
)

// newCTA carves one ctaState out of the run's slab; the slab is presized
// to the grid's CTA count, so the append never reallocates and the
// returned address is stable for the run. The capacity guard keeps a
// kernel that dispatches more CTAs than its declared grid (impossible
// today) correct rather than corrupting live pointers.
func (s *sim) newCTA() *ctaState {
	if len(s.ctaSlab) == cap(s.ctaSlab) {
		return &ctaState{}
	}
	s.ctaSlab = append(s.ctaSlab, ctaState{})
	return &s.ctaSlab[len(s.ctaSlab)-1]
}

// newWarp carves one warpState out of the run's slab under the same
// stability contract as newCTA.
func (s *sim) newWarp(w warpState) *warpState {
	if len(s.warpSlab) == cap(s.warpSlab) {
		p := new(warpState)
		*p = w
		return p
	}
	s.warpSlab = append(s.warpSlab, w)
	return &s.warpSlab[len(s.warpSlab)-1]
}

// buildOrder fixes the order the GigaThread engine consumes CTAs in.
// Round-robin policies consume them in launch order; the random pattern
// observed on GTX750Ti (and real applications) permutes within each
// dispatch wave.
func (s *sim) buildOrder() {
	s.order = make([]int, s.totalCTAs)
	for i := range s.order {
		s.order[i] = i
	}
	if s.pol == arch.SchedRandom {
		wave := s.ctasPerSM * len(s.sms)
		if wave <= 0 {
			wave = len(s.sms)
		}
		for start := 0; start < len(s.order); start += wave {
			end := start + wave
			if end > len(s.order) {
				end = len(s.order)
			}
			chunk := s.order[start:end]
			s.rng.Shuffle(len(chunk), func(i, j int) {
				chunk[i], chunk[j] = chunk[j], chunk[i]
			})
		}
	}
}

// firstWave performs the initial assignment: each SM gets one CTA per
// round until all SMs are saturated (Section 2, "CTA Scheduling").
func (s *sim) firstWave() {
	for round := 0; round < s.ctasPerSM; round++ {
		for _, sm := range s.sms {
			if s.nextCTA >= len(s.order) {
				return
			}
			s.dispatchTo(sm, round, 0)
		}
	}
}

// dispatchTo places the next CTA (in policy order) onto sm at slot,
// starting at time at. A cancelled run context stops dispatching here —
// the CTA boundary — leaving the remaining CTAs unconsumed; the event
// loop then surfaces the cancellation.
func (s *sim) dispatchTo(sm *smState, slot int, at int64) {
	if s.pollCtx() {
		return
	}
	id := s.order[s.nextCTA]
	s.nextCTA++
	s.dispatched++

	launch := kernel.Launch{
		CTA:      id,
		SM:       sm.id,
		Slot:     slot,
		WarpSlot: slot * s.warpsPerCTA,
	}
	work := s.kern.Work(launch)

	cta := s.newCTA()
	cta.sm = sm
	cta.rec = CTARecord{CTA: id, SM: sm.id, Slot: slot, Dispatched: at}
	s.perSM[sm.id] = append(s.perSM[sm.id], id)
	if s.prof != nil {
		s.prof.Emit(prof.Event{
			Kind: prof.EvCTADispatch, SM: int32(sm.id), CTA: int32(id),
			Warp: -1, Slot: int32(slot), Cycle: at,
		})
	}

	if work.Skip || len(work.Warps) == 0 {
		// Throttled agent: retires immediately, freeing the slot.
		cta.rec.Skipped = true
		cta.rec.Retired = at + dispatchLatency
		s.records[id] = cta.rec
		if s.prof != nil {
			s.prof.Emit(prof.Event{
				Kind: prof.EvCTARetire, SM: int32(sm.id), CTA: int32(id),
				Warp: -1, Slot: int32(slot), Cycle: cta.rec.Retired, Dur: dispatchLatency,
			})
		}
		s.afterRetire(sm, slot, cta.rec.Retired)
		return
	}

	sm.slots[slot] = cta
	cta.warps = make([]*warpState, len(work.Warps))
	cta.live = len(work.Warps)
	for i, ops := range work.Warps {
		w := s.newWarp(warpState{cta: cta, id: i, ops: ops})
		cta.warps[i] = w
		s.q.schedule(at+dispatchLatency, w)
	}
	s.occupancyDelta(sm, at, len(cta.warps))
}

// afterRetire hands the freed slot to the next CTA under the demand-
// driven regime that follows the first wave. Strict-RR instead keeps the
// static CTA->SM mapping prior work assumed.
func (s *sim) afterRetire(sm *smState, slot int, at int64) {
	if s.nextCTA >= len(s.order) {
		return
	}
	if s.pol == arch.SchedStrictRR {
		// CTA i belongs to SM i%SMs: dispatch the next CTA whose strict
		// home is this SM.
		want := s.order[s.nextCTA] % len(s.sms)
		if want != sm.id {
			// Search forward for a CTA homed here; strict RR launches in
			// order, so only the immediate next matters per SM. Emulate
			// per-SM queues by scanning.
			for i := s.nextCTA; i < len(s.order); i++ {
				if s.order[i]%len(s.sms) == sm.id {
					s.order[i], s.order[s.nextCTA] = s.order[s.nextCTA], s.order[i]
					break
				}
			}
			if s.order[s.nextCTA]%len(s.sms) != sm.id {
				return // nothing homed on this SM remains
			}
		}
	}
	s.dispatchTo(sm, slot, at)
}

// retire finishes a CTA: it writes the record table and the occupancy
// integral, then (via afterRetire) hands the slot to the dispatcher.
func (s *sim) retire(cta *ctaState, at int64) {
	cta.rec.Retired = at
	s.records[cta.rec.CTA] = cta.rec
	sm := cta.sm
	if s.prof != nil {
		s.prof.Emit(prof.Event{
			Kind: prof.EvCTARetire, SM: int32(sm.id), CTA: int32(cta.rec.CTA),
			Warp: -1, Slot: int32(cta.rec.Slot), Cycle: at, Dur: at - cta.rec.Dispatched,
		})
	}
	sm.slots[cta.rec.Slot] = nil
	s.occupancyDelta(sm, at, -len(cta.warps))
	s.afterRetire(sm, cta.rec.Slot, at)
}

// occupancyDelta integrates resident warps over time, then applies a
// change of delta resident warps on sm at time at. The summation order
// over s.sms is fixed, keeping the float accumulation — and hence
// AchievedOccupancy — bit-identical run to run.
func (s *sim) occupancyDelta(sm *smState, at int64, delta int) {
	total := 0
	for _, m := range s.sms {
		total += m.resident
	}
	if at > s.occLast {
		if total > 0 {
			s.occAccum += float64(total) * float64(at-s.occLast)
			s.occBusy += at - s.occLast
		}
		s.occLast = at
	}
	sm.resident += delta
}
