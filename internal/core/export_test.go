package core

import (
	"fmt"

	"ctacluster/internal/kernel"
)

// RefWork is the agent transform's Work as it was before traces were
// appended in place: it builds every warp's task loop by copying each
// task's freshly generated trace, and prefetchOps regenerates the
// successor's whole trace into new storage. It is kept verbatim as the
// reference the in-place Work, drained through its continuation, must
// match op for op (buf_contract_test.go); it ignores Launch.Buf.
func (k *AgentKernel) RefWork(l kernel.Launch) kernel.CTAWork {
	sm := l.SM
	if sm < 0 || sm >= k.part.M {
		sm = 0
	}

	// SM-based binding: obtain agent_id.
	var agentID int
	var bind [][]kernel.Op // per-warp binding preamble
	warps := k.orig.WarpsPerCTA()
	bind = make([][]kernel.Op, warps)
	if k.cfg.Arch.StaticWarpSlotBinding {
		// Fermi/Kepler: agent_id = %warpid / WARPS_PER_CTA.
		agentID = l.Slot
		for i := range bind {
			bind[i] = []kernel.Op{kernel.Compute(staticBindCost)}
		}
	} else {
		// Maxwell/Pascal: primary thread bids via a global atomic and
		// broadcasts through shared memory; everyone else waits.
		agentID = k.counters[sm]
		k.counters[sm]++
		ctr := agentCounterBase + uint64(sm)*4
		for i := range bind {
			if i == 0 {
				bind[i] = []kernel.Op{
					kernel.Compute(dynamicCalcCost),
					kernel.AtomicAdd(ctr, 4),
					kernel.Barrier(),
				}
			} else {
				bind[i] = []kernel.Op{kernel.Barrier()}
			}
		}
	}

	if agentID >= k.active {
		// CTA throttling: surplus agents retire immediately.
		return kernel.CTAWork{Skip: true}
	}

	tasks := k.Tasks(sm, agentID)
	out := make([][]kernel.Op, warps)
	for i := range out {
		out[i] = append(out[i], bind[i]...)
	}
	idxc := indexCost(k.cfg.Indexing) + taskLoopCost
	for ti, target := range tasks {
		inner := l
		inner.CTA = target
		tw := k.orig.Work(inner)
		if len(tw.Warps) != warps {
			panic(fmt.Sprintf("core: kernel %s produced %d warps, want %d", k.orig.Name(), len(tw.Warps), warps))
		}
		var pre []kernel.Op
		if k.cfg.Prefetch && ti+1 < len(tasks) {
			pre = k.refPrefetchOps(l, tasks[ti+1])
		}
		for i := range out {
			out[i] = append(out[i], kernel.Compute(idxc))
			for _, op := range tw.Warps[i] {
				if k.cfg.Bypass && op.Kind == kernel.OpMem && op.Mem.Streaming && !op.Mem.Write {
					op.Mem.Bypass = true
				}
				out[i] = append(out[i], op)
			}
			// Preload the successor task's first lines before the
			// current task expires (Section 4.3-III).
			if i == 0 && len(pre) > 0 {
				out[i] = append(out[i], pre...)
			}
		}
	}
	return kernel.CTAWork{Warps: out}
}

// refPrefetchOps is the copying prefetchOps RefWork calls.
func (k *AgentKernel) refPrefetchOps(l kernel.Launch, nextTarget int) []kernel.Op {
	inner := l
	inner.CTA = nextTarget
	tw := k.orig.Work(inner)
	ops := []kernel.Op{kernel.Compute(idxCostArbitrary)} // address recalculation
	n := 0
	for _, wops := range tw.Warps {
		for i, op := range wops {
			if op.Kind == kernel.OpMem && !op.Mem.Write {
				ops = append(ops, op.Prefetched())
				ops = append(ops, wops[i+1:i+op.Span()]...) // a gather's lane ops
				n++
				if n >= k.cfg.PrefetchDepth {
					return ops
				}
			}
		}
	}
	if n == 0 {
		return nil
	}
	return ops
}
