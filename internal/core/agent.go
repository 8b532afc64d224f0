package core

import (
	"fmt"

	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
)

// Binding overheads of Section 4.2.3-(B), in cycles. Static binding
// (Fermi/Kepler) reads two special registers and divides; dynamic
// binding (Maxwell/Pascal) additionally performs a global atomic and a
// shared-memory broadcast, modelled as real atomic+barrier ops so the
// cost scales with L2 contention like the real thing.
const (
	staticBindCost  = 6
	dynamicCalcCost = 8
	taskLoopCost    = 2 // loop bookkeeping per task, on top of indexCost
)

// agentCounterBase hosts the global_counters array of Listing 5, far
// above the workload allocator's range.
const agentCounterBase = uint64(0xF000_0000)

// AgentConfig configures the agent-based clustering transform.
type AgentConfig struct {
	// Arch is the target machine: it determines the number of clusters
	// (SMs), the binding flavour and the maximum allowable agents.
	Arch *arch.Arch
	// Indexing selects the CTA order that Partitioning chunks
	// (X-/Y-/tile-wise partitioning per Figure 7).
	Indexing kernel.Indexing
	// Perm is the explicit order for kernel.Arbitrary.
	Perm []int
	// ActiveAgents throttles concurrent agents per SM (Section 4.3-I).
	// 0 means all MaxAgents are active (no throttling).
	ActiveAgents int
	// Bypass rewrites streaming-hinted accesses to skip L1 (Section 4.3-II).
	Bypass bool
	// Prefetch makes each task preload the first loads of its successor
	// task under the reshaped order (Section 4.3-III).
	Prefetch bool
	// PrefetchDepth bounds how many loads are prefetched per task
	// (default 4).
	PrefetchDepth int
}

// AgentKernel is the agent-based clustering transform of Section
// 4.2.4-(2) / Listing 5: the launched grid holds SMs×MAX_AGENTS
// persistent CTAs ("agents"); each agent binds itself to the cluster of
// the SM it lands on and serves that cluster's tasks in a loop,
// completely circumventing the hardware CTA scheduler.
type AgentKernel struct {
	orig      kernel.Kernel
	cfg       AgentConfig
	part      Partition
	maxAgents int
	active    int
	counters  []int // per-SM dynamic agent-id counters (%smid-indexed)

	// Task-loop scratch, reused across calls and agents: each warp's
	// length before the current task, and prefetchOps' successor trace
	// and preamble.
	start []int
	pfBuf [][]kernel.Op
	pre   []kernel.Op
}

// NewAgent builds the agent-based clustering transform of orig for the
// architecture in cfg.
func NewAgent(orig kernel.Kernel, cfg AgentConfig) (*AgentKernel, error) {
	if cfg.Arch == nil {
		return nil, fmt.Errorf("core: agent clustering needs a target architecture")
	}
	total := orig.GridDim().Count()
	part, err := NewPartition(total, cfg.Arch.SMs)
	if err != nil {
		return nil, err
	}
	if cfg.Indexing == kernel.Arbitrary && len(cfg.Perm) != total {
		return nil, fmt.Errorf("core: arbitrary indexing needs a permutation of length %d, got %d", total, len(cfg.Perm))
	}
	occ := cfg.Arch.OccupancyFor(orig.WarpsPerCTA(), orig.RegsPerThread(cfg.Arch.Gen), orig.SharedMemPerCTA())
	if occ.CTAsPerSM <= 0 {
		return nil, fmt.Errorf("core: kernel %s does not fit on %s", orig.Name(), cfg.Arch.Name)
	}
	active := cfg.ActiveAgents
	if active <= 0 || active > occ.CTAsPerSM {
		active = occ.CTAsPerSM
	}
	if cfg.PrefetchDepth <= 0 {
		cfg.PrefetchDepth = 4
	}
	return &AgentKernel{
		orig:      orig,
		cfg:       cfg,
		part:      part,
		maxAgents: occ.CTAsPerSM,
		active:    active,
		counters:  make([]int, cfg.Arch.SMs),
		start:     make([]int, orig.WarpsPerCTA()),
	}, nil
}

// Name labels the transformed kernel with its scheme.
func (k *AgentKernel) Name() string {
	n := k.orig.Name() + "+CLU"
	if k.active < k.maxAgents {
		n += "+TOT"
	}
	if k.cfg.Bypass {
		n += "+BPS"
	}
	if k.cfg.Prefetch {
		n += "+PFH"
	}
	return n
}

// MaxAgents is the MAX_AGENTS of Listing 5: the maximum allowable agents
// per SM, always launched in full to force balanced distribution.
func (k *AgentKernel) MaxAgents() int { return k.maxAgents }

// ActiveAgents is the ACTIVE_AGENTS throttling degree.
func (k *AgentKernel) ActiveAgents() int { return k.active }

// GridDim launches SMs×MAX_AGENTS agents.
func (k *AgentKernel) GridDim() kernel.Dim3 {
	return kernel.Dim1(k.cfg.Arch.SMs * k.maxAgents)
}

// BlockDim matches the original.
func (k *AgentKernel) BlockDim() kernel.Dim3 { return k.orig.BlockDim() }

// WarpsPerCTA matches the original.
func (k *AgentKernel) WarpsPerCTA() int { return k.orig.WarpsPerCTA() }

// RegsPerThread matches the original (__launch_bounds__ may raise usage
// when throttled, which only relaxes an already-satisfied limit).
func (k *AgentKernel) RegsPerThread(g arch.Generation) int { return k.orig.RegsPerThread(g) }

// SharedMemPerCTA matches the original plus the agent-id broadcast slot
// on dynamically-binding architectures.
func (k *AgentKernel) SharedMemPerCTA() int {
	s := k.orig.SharedMemPerCTA()
	if !k.cfg.Arch.StaticWarpSlotBinding {
		s += 4
	}
	return s
}

// ArrayRefs exposes the original kernel's reference structure.
func (k *AgentKernel) ArrayRefs() []kernel.ArrayRef { return kernel.ArrayRefsOf(k.orig) }

// Reset clears the dynamic binding counters so the kernel can be
// re-launched (each engine.Run is one launch).
func (k *AgentKernel) Reset() {
	for i := range k.counters {
		k.counters[i] = 0
	}
}

// Tasks returns the original CTA ids agent (sm, agentID) will execute,
// in order (exported for property tests).
func (k *AgentKernel) Tasks(sm, agentID int) []int {
	if sm < 0 || sm >= k.part.M || agentID >= k.active {
		return nil
	}
	base := k.part.ClusterBase(sm)
	jobs := k.part.ClusterSize(sm)
	g := k.orig.GridDim()
	var out []int
	for t := agentID; t < jobs; t += k.active {
		v := base + t
		out = append(out, origCTA(k.cfg.Indexing, k.cfg.Perm, v, g))
	}
	return out
}

// Work binds the agent to its SM's cluster and appends the binding
// preamble and its first task to l.Buf. The rest of the task loop comes
// one task per call from the returned CTAWork.More, which appends to
// the traces it is given: the agent runs its tasks one after another,
// as Listing 5's loop does.
func (k *AgentKernel) Work(l kernel.Launch) kernel.CTAWork {
	sm := l.SM
	if sm < 0 || sm >= k.part.M {
		sm = 0
	}

	// SM-based binding: obtain agent_id.
	static := k.cfg.Arch.StaticWarpSlotBinding
	var agentID int
	if static {
		// Fermi/Kepler: agent_id = %warpid / WARPS_PER_CTA.
		agentID = l.Slot
	} else {
		agentID = k.counters[sm]
		k.counters[sm]++
	}
	if agentID >= k.active {
		// CTA throttling: surplus agents retire immediately.
		return kernel.CTAWork{Skip: true}
	}

	out := l.WarpBufs(k.orig.WarpsPerCTA())
	for w := range out {
		switch {
		case static:
			out[w] = append(out[w], kernel.Compute(staticBindCost))
		case w == 0:
			// Maxwell/Pascal: the primary thread bids via a global
			// atomic and broadcasts through shared memory; everyone
			// else waits.
			out[w] = append(out[w],
				kernel.Compute(dynamicCalcCost),
				kernel.AtomicAdd(agentCounterBase+uint64(sm)*4, 4),
				kernel.Barrier())
		default:
			out[w] = append(out[w], kernel.Barrier())
		}
	}

	tasks := k.Tasks(sm, agentID)
	if len(tasks) == 0 {
		return kernel.CTAWork{Warps: out}
	}
	l.Buf = nil // the continuation is handed its traces on each call
	next := 0
	more := func(buf [][]kernel.Op) ([][]kernel.Op, bool) {
		buf = k.appendTask(l, tasks, next, buf)
		next++
		return buf, next < len(tasks)
	}
	out, ok := more(out)
	if !ok {
		return kernel.CTAWork{Warps: out}
	}
	return kernel.CTAWork{Warps: out, More: more}
}

// appendTask appends task ti of tasks to the agent's warp traces out:
// an index op and the task's trace, which the original kernel appends
// in place, with its streaming reads bypassed under BPS and, under PFH,
// the successor task's prefetch ops after it.
func (k *AgentKernel) appendTask(l kernel.Launch, tasks []int, ti int, out [][]kernel.Op) [][]kernel.Op {
	for w, ops := range out {
		k.start[w] = len(ops)
	}
	l.CTA, l.Buf = tasks[ti], out
	out = kernel.Drain(kernel.WorkAfter(k.orig, l, kernel.Compute(indexCost(k.cfg.Indexing)+taskLoopCost))).Warps
	if k.cfg.Bypass {
		for w, ops := range out {
			for i := k.start[w]; i < len(ops); i++ {
				if m := &ops[i].Mem; ops[i].Kind == kernel.OpMem && m.Streaming && !m.Write {
					m.Bypass = true
				}
			}
		}
	}
	// Preload the successor task's first lines before the current task
	// expires (Section 4.3-III).
	if k.cfg.Prefetch && ti+1 < len(tasks) {
		out[0] = append(out[0], k.prefetchOps(l, tasks[ti+1])...)
	}
	return out
}

// prefetchOps derives the prefetch preamble for the successor task:
// recompute its addresses and issue non-blocking loads for its first
// PrefetchDepth reads, taken from its raw trace (before any bypass
// rewrite). A gather is copied with its lane ops and counts as one
// read. The trace and the returned ops live in per-kernel scratch
// reused across tasks; the caller copies the ops out.
func (k *AgentKernel) prefetchOps(l kernel.Launch, nextTarget int) []kernel.Op {
	for w := range k.pfBuf {
		k.pfBuf[w] = k.pfBuf[w][:0]
	}
	l.CTA, l.Buf = nextTarget, k.pfBuf
	k.pfBuf = k.orig.Work(l).Warps
	k.pre = append(k.pre[:0], kernel.Compute(idxCostArbitrary)) // address recalculation
	reads := 0
	for _, ops := range k.pfBuf {
		for i, op := range ops {
			if op.Kind == kernel.OpMem && !op.Mem.Write {
				k.pre = append(k.pre, op.Prefetched())
				k.pre = append(k.pre, ops[i+1:i+op.Span()]...)
				if reads++; reads >= k.cfg.PrefetchDepth {
					return k.pre
				}
			}
		}
	}
	if reads == 0 {
		return nil
	}
	return k.pre
}
