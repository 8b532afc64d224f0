// Package engine is a discrete-event, trace-driven simulator of a modern
// NVIDIA GPU: SMs with issue-limited warp execution, CTA slots and
// barriers, per-SM L1 (or sectored L1/Tex unified) caches, a GigaThread
// CTA dispatcher with the scheduling patterns observed in Section
// 3.1-(3), and the shared NoC/L2/DRAM hierarchy from internal/mem.
//
// The engine executes kernel.Kernel values. Because CTA work is
// requested at dispatch time with the physical placement (SM, slot) in
// the Launch context, both ordinary kernels and the clustered kernels
// produced by internal/core run unmodified. A CTA's trace may come in
// chunks (kernel.CTAWork.More, one per agent task): the engine appends
// the next chunk to the slot's traces when a warp runs out of ops.
//
// A run is one serial event loop over a single (cycle, seq)-ordered
// queue. Independent runs parallelize outside the engine (eval's worker
// pool, the ctad daemon); DESIGN.md §9 records why a single
// run is not split across goroutines.
package engine

import (
	"context"
	"fmt"
	"math/rand"

	"ctacluster/internal/arch"
	"ctacluster/internal/cache"
	"ctacluster/internal/kernel"
	"ctacluster/internal/mem"
	"ctacluster/internal/prof"
)

// Config controls one simulation run.
type Config struct {
	Arch *arch.Arch
	// Scheduler overrides the architecture's default GigaThread policy
	// when set (UseArchDefault leaves it alone).
	Scheduler arch.SchedulerPolicy
	// UseArchDefault selects Arch.DefaultScheduler instead of Scheduler.
	UseArchDefault bool
	// L1Enabled turns the L1 data cache on; the framework's probing step
	// (Section 4.4) compares runs with it on and off.
	L1Enabled bool
	// Seed feeds the random scheduler pattern and tie-breaking.
	Seed int64
	// MaxCycles aborts runaway simulations; 0 means the default bound.
	MaxCycles int64
	// Profiler receives the run's event stream and interval counter
	// snapshots (internal/prof). nil disables profiling entirely: every
	// emit site is behind a single pointer comparison and the run makes
	// no profiling allocations.
	Profiler prof.Profiler
}

// DefaultConfig returns the customary configuration for an architecture:
// its observed scheduler, L1 enabled.
func DefaultConfig(ar *arch.Arch) Config {
	return Config{Arch: ar, UseArchDefault: true, L1Enabled: true, Seed: 1}
}

// CTARecord reports per-CTA outcomes needed by the Listing-3
// microbenchmark and the dispatch-order analyses.
type CTARecord struct {
	CTA        int   // linear id in the launched kernel
	SM         int   // SM it executed on
	Slot       int   // CTA slot used
	Dispatched int64 // cycle of dispatch
	Retired    int64 // cycle of retirement
	MemLatency int64 // summed memory-op latency observed by its warps
	MemOps     int64 // number of blocking memory ops
	Skipped    bool  // retired immediately (throttled agent)
}

// AvgAccessCycles returns the mean latency of the CTA's blocking memory
// ops — the t2-t1 measurement of Listing 3.
func (r CTARecord) AvgAccessCycles() float64 {
	if r.MemOps == 0 {
		return 0
	}
	return float64(r.MemLatency) / float64(r.MemOps)
}

// Result is everything a simulation produces.
type Result struct {
	Kernel string
	Arch   string
	Cycles int64
	// Chiplets is the die count of the simulated architecture
	// (arch.Arch.Chiplets); 0 for the monolithic Table 1 platforms. It
	// gates the interposer rows in the metrics export (prof.Metrics).
	Chiplets int

	L1  cache.Stats // aggregated over all SMs
	Mem mem.Stats
	L2  cache.Stats

	CTAs []CTARecord
	// PerSM lists, for each SM, the CTA ids it executed in dispatch
	// order (the smids array of Listing 3).
	PerSM [][]int

	// AchievedOccupancy is the time-weighted average of resident warps
	// over warp slots while the kernel had work in flight.
	AchievedOccupancy float64

	// L1PerSM keeps the individual L1 stats for locality inspection.
	L1PerSM []cache.Stats
}

// L2ReadTransactions is the paper's headline cache metric: 32B read
// transactions arriving at L2 (L1-L2 read transactions).
func (r *Result) L2ReadTransactions() uint64 { return r.Mem.ReadTransactions }

// ProfMetrics converts the result into the exporter record of
// internal/prof — the end-of-run counters the nvprof-style CSV renders.
func (r *Result) ProfMetrics() prof.Metrics {
	return prof.Metrics{
		Kernel: r.Kernel, Arch: r.Arch, Cycles: r.Cycles, Chiplets: r.Chiplets,
		AchievedOccupancy: r.AchievedOccupancy,
		L1:                r.L1, L2: r.L2, Mem: r.Mem,
	}
}

// warpState is one resident warp.
type warpState struct {
	cta  *ctaState
	id   int // warp index within the CTA
	ops  []kernel.Op
	pc   int
	done bool

	// In-flight load window: a warp pipelines up to mlpWindow
	// independent loads (the LSU queue / scoreboard); dependent ops
	// (barriers, stores, atomics, trace end) drain it.
	outstanding int
	pendDone    int64 // completion time of the latest outstanding load
}

// ctaState is one resident CTA.
type ctaState struct {
	rec        CTARecord
	warps      []*warpState
	live       int // warps not yet finished
	barWait    int // warps blocked at the current barrier
	barBlocked []*warpState
	sm         *smState
}

// smState is one streaming multiprocessor.
type smState struct {
	id        int
	l1        *cache.Cache // owns the SM's MSHR table of in-flight fills
	issueFree int64
	slots     []*ctaState     // fixed-capacity CTA slots; nil = free
	bufs      [][][]kernel.Op // per slot: its last CTA's warp traces, recycled as Launch.Buf
	resident  int             // resident warps (occupancy tracking)

	// more holds, per slot, the resident CTA's continuation
	// (kernel.CTAWork.More) until its last chunk is in bufs; nil = none.
	// It lives here rather than in ctaState, which the run allocates
	// once per CTA of the grid.
	more []func([][]kernel.Op) ([][]kernel.Op, bool)
}

// sim is the run state.
type sim struct {
	cfg    Config
	ar     *arch.Arch
	pol    arch.SchedulerPolicy
	kern   kernel.Kernel
	memsys *mem.System
	sms    []*smState
	rng    *rand.Rand

	q scheduler // the event queue, popped in (cycle, seq) order by loop

	// txBuf is the coalescing scratch: memAccess appends each op's
	// transactions into it (kernel.MemOp.AppendTransactions) so the hot
	// path builds no per-op slices. Reused per op.
	txBuf []uint64

	nextCTA    int // next undispatched CTA (dispatch order)
	dispatched int
	totalCTAs  int
	order      []int // dispatch order of CTA ids (policy-shuffled)

	ctasPerSM   int
	warpsPerCTA int

	records []CTARecord
	perSM   [][]int

	// Per-run slabs: warp and CTA states are carved out of two presized
	// arrays instead of being allocated one object per dispatch
	// (sm.go newWarp/newCTA). Slab addresses are stable for the run —
	// events and slots hold pointers into them. A warp's ops live in its
	// slot's recycled buffer (smState.bufs), so the slab pins no traces
	// beyond the resident CTAs'.
	warpSlab []warpState
	ctaSlab  []ctaState

	// occupancy integral
	occLast  int64
	occAccum float64
	occBusy  int64

	// profiling (nil/zero when disabled)
	prof      prof.Profiler
	snapEvery int64 // counter-snapshot period in cycles; 0 = off
	nextSnap  int64

	// cancellation (nil context.Background() when unused)
	ctx       context.Context
	cancelled error // sticky ctx.Err(), checked at dispatch boundaries
	evCount   int64 // events since the last periodic ctx poll

	now int64
}

// Run simulates k to completion under cfg and returns the results. It
// is RunContext with an uncancellable context.
func Run(cfg Config, k kernel.Kernel) (*Result, error) {
	return RunContext(context.Background(), cfg, k)
}

// RunContext simulates k to completion under cfg, honouring ctx. The
// context is polled at every CTA-dispatch boundary and every
// ctxPollEvents simulation events, so a cancelled or expired context
// stops the run promptly — even mid-CTA — with an error wrapping
// ctx.Err(). The partial simulation state is discarded: a cancelled run
// returns no Result.
func RunContext(ctx context.Context, cfg Config, k kernel.Kernel) (*Result, error) {
	return run(ctx, cfg, k, false)
}

// run is RunContext with the event-queue discipline selectable:
// refQueue swaps the timing wheel for the reference heap (event.go).
// Only the differential tests set it (export_test.go); the two
// disciplines pop in the same order, so no caller can observe it.
func run(ctx context.Context, cfg Config, k kernel.Kernel, refQueue bool) (*Result, error) {
	s, err := simulate(ctx, cfg, k, refQueue)
	if err != nil {
		return nil, err
	}
	return s.result(), nil
}

// simulate runs k to completion and returns the drained simulation.
func simulate(ctx context.Context, cfg Config, k kernel.Kernel, refQueue bool) (*sim, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: kernel %s cancelled before start: %w", k.Name(), err)
	}
	if cfg.Arch == nil {
		return nil, fmt.Errorf("engine: nil architecture")
	}
	ar := cfg.Arch
	pol := cfg.Scheduler
	if cfg.UseArchDefault {
		pol = ar.DefaultScheduler
	}
	warpsPerCTA := k.WarpsPerCTA()
	if warpsPerCTA <= 0 {
		return nil, fmt.Errorf("engine: kernel %s has no warps", k.Name())
	}
	occ := ar.OccupancyFor(warpsPerCTA, k.RegsPerThread(ar.Gen), k.SharedMemPerCTA())
	if occ.CTAsPerSM <= 0 {
		return nil, fmt.Errorf("engine: kernel %s does not fit on %s", k.Name(), ar.Name)
	}
	total := k.GridDim().Count()
	if total <= 0 {
		return nil, fmt.Errorf("engine: kernel %s has an empty grid", k.Name())
	}
	// A launch resets any per-launch kernel state (e.g. the agent-id
	// counters of agent-based clustering).
	if r, ok := k.(interface{ Reset() }); ok {
		r.Reset()
	}

	s := &sim{
		cfg:         cfg,
		ctx:         ctx,
		ar:          ar,
		pol:         pol,
		kern:        k,
		memsys:      mem.New(ar),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		totalCTAs:   total,
		ctasPerSM:   occ.CTAsPerSM,
		warpsPerCTA: warpsPerCTA,
		records:     make([]CTARecord, total),
		perSM:       make([][]int, ar.SMs),
		warpSlab:    make([]warpState, 0, total*warpsPerCTA),
		ctaSlab:     make([]ctaState, 0, total),
	}
	s.sms = make([]*smState, ar.SMs)
	more := make([]func([][]kernel.Op) ([][]kernel.Op, bool), ar.SMs*occ.CTAsPerSM)
	for i := range s.sms {
		sectors := 1
		if ar.L1Sectored {
			sectors = 2
		}
		s.sms[i] = &smState{
			id: i,
			l1: cache.New(cache.Config{
				Size:    ar.L1Size,
				Line:    ar.L1Line,
				Assoc:   ar.L1Assoc,
				Sectors: sectors,
				Policy:  cache.WriteEvict,
			}),
			slots: make([]*ctaState, occ.CTAsPerSM),
			bufs:  make([][][]kernel.Op, occ.CTAsPerSM),
			more:  more[i*occ.CTAsPerSM : (i+1)*occ.CTAsPerSM],
		}
	}
	s.q = newScheduler(refQueue, ar.SMs*occ.CTAsPerSM*warpsPerCTA)
	if s.prof = cfg.Profiler; s.prof != nil {
		if iv := s.prof.SampleInterval(); iv > 0 {
			s.snapEvery, s.nextSnap = iv, iv
		}
		// Route L2 transactions into the event stream. The closure is the
		// only profiling allocation, made once per run.
		p := s.prof
		s.memsys.SetObserver(func(at int64, smID int, addr uint64, kind mem.TxnKind, l2Hit, remote bool) {
			p.Emit(prof.Event{
				Kind: prof.EvL2Transaction, Tag: uint8(kind), Hit: l2Hit, Remote: remote,
				Write: kind == mem.TxnWrite, SM: int32(smID), CTA: -1, Warp: -1, Slot: -1,
				Cycle: at, Addr: addr,
			})
		})
	}
	s.buildOrder()
	s.firstWave()
	if err := s.loop(); err != nil {
		return nil, err
	}
	if s.snapEvery > 0 {
		// Final sample after the drain so the last snapshot equals the
		// end-of-run totals (the conservation property).
		s.prof.Snapshot(s.counterSnapshot(s.now))
	}
	return s, nil
}

// counterSnapshot samples the counter registry: the cumulative cache
// and memory statistics as of cycle at, L1 aggregated over all SMs.
func (s *sim) counterSnapshot(at int64) prof.Snapshot {
	snap := prof.Snapshot{Cycle: at, L2: s.memsys.L2Stats(), Mem: s.memsys.Stats()}
	for _, sm := range s.sms {
		snap.L1.Add(sm.l1.Stats())
	}
	return snap
}

func (s *sim) result() *Result {
	res := &Result{
		Kernel:   s.kern.Name(),
		Arch:     s.ar.Name,
		Cycles:   s.now,
		Chiplets: s.ar.Chiplets,
		Mem:      s.memsys.Stats(),
		L2:       s.memsys.L2Stats(),
		CTAs:     s.records,
		PerSM:    s.perSM,
	}
	res.L1PerSM = make([]cache.Stats, len(s.sms))
	for i, sm := range s.sms {
		st := sm.l1.Stats()
		res.L1PerSM[i] = st
		res.L1.Add(st)
	}
	if s.occBusy > 0 {
		res.AchievedOccupancy = s.occAccum / float64(s.occBusy) /
			float64(s.ar.WarpSlots*s.ar.SMs)
	}
	return res
}

const defaultMaxCycles = int64(1) << 33

// ctxPollEvents bounds how many simulation events may elapse between
// context polls inside one CTA, keeping cancellation prompt even for
// kernels whose CTAs run for millions of cycles. Context polls also
// happen at every CTA-dispatch boundary (see sm.go dispatchTo).
const ctxPollEvents = 4096

// pollCtx samples the run context, latching its error. It returns true
// once the run is cancelled; the latch keeps every later check a single
// pointer comparison.
func (s *sim) pollCtx() bool {
	if s.cancelled != nil {
		return true
	}
	if err := s.ctx.Err(); err != nil {
		s.cancelled = err
		return true
	}
	return false
}

// cancelErr wraps the latched context error with run position so
// callers can both report where the simulation stopped and unwrap
// context.Canceled / DeadlineExceeded with errors.Is.
func (s *sim) cancelErr() error {
	return fmt.Errorf("engine: kernel %s cancelled at cycle %d (%d of %d CTAs dispatched): %w",
		s.kern.Name(), s.now, s.dispatched, s.totalCTAs, s.cancelled)
}

// loop is the cycle loop: pop events in (at, seq) order and step them
// until the queue drains.
func (s *sim) loop() error {
	maxCycles := s.cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = defaultMaxCycles
	}
	for {
		if s.cancelled != nil {
			return s.cancelErr()
		}
		ev, ok := s.q.next()
		if !ok {
			break
		}
		if ev.at > maxCycles {
			return fmt.Errorf("engine: kernel %s exceeded %d cycles", s.kern.Name(), maxCycles)
		}
		if s.evCount++; s.evCount >= ctxPollEvents {
			s.evCount = 0
			if s.pollCtx() {
				return s.cancelErr()
			}
		}
		if ev.at > s.now {
			s.now = ev.at
			if s.snapEvery > 0 && s.now >= s.nextSnap {
				// Sample at the first event past each boundary, then
				// skip ahead so one big time jump yields one sample.
				s.prof.Snapshot(s.counterSnapshot(s.now))
				s.nextSnap = (s.now/s.snapEvery + 1) * s.snapEvery
			}
		}
		s.step(ev.warp)
	}
	return s.checkDrained()
}

// checkDrained is the end-of-run tail: verify the drained event queue
// means completion rather than deadlock, then flush the memory system.
func (s *sim) checkDrained() error {
	if s.dispatched != s.totalCTAs {
		return fmt.Errorf("engine: deadlock — %d of %d CTAs dispatched", s.dispatched, s.totalCTAs)
	}
	// A drained event queue with unfinished CTAs mean warps are stuck
	// at a barrier their peers will never reach (malformed kernel).
	for _, sm := range s.sms {
		for _, cta := range sm.slots {
			if cta != nil {
				return fmt.Errorf("engine: kernel %s deadlocked — CTA %d stuck at a barrier (%d of %d warps waiting)",
					s.kern.Name(), cta.rec.CTA, cta.barWait, cta.live)
			}
		}
	}
	s.memsys.Drain()
	return nil
}
