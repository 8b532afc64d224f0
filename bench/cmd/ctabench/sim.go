package main

import (
	"fmt"
	"math/rand"
	"time"

	"ctacluster/internal/arch"
	"ctacluster/internal/cache"
	"ctacluster/internal/calib"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/mem"
	"ctacluster/internal/workloads"
)

// jobSpec names one simulation an engine workload repeats.
type jobSpec struct {
	app, arch string
	dies      int // chiplet dies (arch.WithChiplets); 0 keeps the monolithic part
	clu       bool
}

// traceHeavyJobs are the read-heavy apps whose trace generation
// dominates allocation (MM builds 28 of the ~40 MB a run allocates), as
// BSL and as agent-based clustering on a 128 B-line Kepler L1.
var traceHeavyJobs = crossJobs([]string{"MM", "KMN", "S2K"}, "TeslaK40", []int{0}, []bool{false, true})

// streamWriteJobs are write-heavy streaming apps: nearly every L1 access
// misses, trace generation is a few percent of CPU, and the 2-die runs
// take the sliced-L2 and interposer path.
var streamWriteJobs = crossJobs([]string{"MON", "BS", "DXT", "SAD", "NW", "HST"}, "GTX1080", []int{0, 2}, []bool{false})

func crossJobs(apps []string, arch string, dies []int, clu []bool) []jobSpec {
	var out []jobSpec
	for _, d := range dies {
		for _, a := range apps {
			for _, c := range clu {
				out = append(out, jobSpec{app: a, arch: arch, dies: d, clu: c})
			}
		}
	}
	return out
}

// job is a jobSpec built for running: the plain kernel the untraced loop
// runs, the same kernel under the timing wrapper, and the set-up run
// whose simulated statistics every later run must reproduce.
type job struct {
	jobSpec
	name          string
	ar            *arch.Arch
	plain, traced kernel.Kernel
	res           *engine.Result
}

// simStats are the simulated statistics a host-only change must leave
// identical.
type simStats struct {
	cycles    int64
	l1, l2    cache.Stats
	mem       mem.Stats
	occupancy float64
}

func statsOf(r *engine.Result) simStats {
	return simStats{cycles: r.Cycles, l1: r.L1, l2: r.L2, mem: r.Mem, occupancy: r.AchievedOccupancy}
}

// engineWorkload runs engine.Run serially over its jobs in rounds, each
// round in a seeded order, until the time is up.
type engineWorkload struct {
	rng     *rand.Rand
	specs   []jobSpec
	loadRef func() (*calib.Reference, error)
	jobs    []*job

	// Clocks of the timing wrappers, reset before each traced run.
	work, transform workClock
	traced          tracedTotals
}

// tracedTotals sums the traced half's runs.
type tracedTotals struct {
	runs                       int
	runNs, workNs, transformNs time.Duration
	workCalls, ops, memops     int
	workAllocs                 uint64
	l1Accesses                 uint64
	cycles                     int64
}

func newEngineWorkload(rng *rand.Rand, specs []jobSpec) *engineWorkload {
	return &engineWorkload{rng: rng, specs: specs, loadRef: calib.Load}
}

func (w *engineWorkload) setup(t *tally) error {
	ref, err := w.loadRef()
	if err != nil {
		return err
	}
	w.jobs = w.jobs[:0]
	for _, s := range w.specs {
		j, err := w.build(s)
		if err != nil {
			return err
		}
		res, err := engine.Run(engine.DefaultConfig(j.ar), j.plain)
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		if s.dies == 0 {
			t.check(checkTarget(ref, j.ar.Name, s.app, s.clu, res.Cycles))
		} else {
			t.check(checkInvariants(j.name, res, j.plain.GridDim().Count()))
		}
		j.res = res
		w.jobs = append(w.jobs, j)
	}
	return nil
}

// build makes the job's kernels. A traced CLU kernel wraps both layers:
// the app's trace generator inside the agent transform, so the agent's
// self time is the transform's own cost.
func (w *engineWorkload) build(s jobSpec) (*job, error) {
	app, err := workloads.New(s.app)
	if err != nil {
		return nil, err
	}
	ar, err := arch.ByName(s.arch)
	if err != nil {
		return nil, err
	}
	if s.dies > 0 {
		if ar, err = arch.WithChiplets(ar, s.dies); err != nil {
			return nil, err
		}
	}
	j := &job{jobSpec: s, ar: ar, name: fmt.Sprintf("%s/%s@%s", s.app, scheme(s.clu), ar.Name)}
	gen := newTimedKernel(app, &w.work, true)
	if !s.clu {
		j.plain, j.traced = app, gen
		return j, nil
	}
	cfg := core.AgentConfig{Arch: ar, Indexing: app.Partition()}
	if j.plain, err = core.NewAgent(app, cfg); err != nil {
		return nil, err
	}
	agent, err := core.NewAgent(gen, cfg)
	if err != nil {
		return nil, err
	}
	j.traced = newTimedKernel(agent, &w.transform, false)
	return j, nil
}

func scheme(clu bool) string {
	if clu {
		return "CLU"
	}
	return "BSL"
}

func (w *engineWorkload) measure(d time.Duration, tr *tracer, t *tally) ([][]float64, error) {
	lat := make([][]float64, len(w.jobs))
	start := time.Now()
	for time.Since(start) < d {
		for _, i := range w.rng.Perm(len(w.jobs)) {
			j := w.jobs[i]
			k := j.plain
			if tr != nil {
				k = j.traced
				w.work, w.transform = workClock{}, workClock{}
			}
			t0 := time.Now()
			res, err := engine.Run(engine.DefaultConfig(j.ar), k)
			el := time.Since(t0)
			if err != nil {
				t.check(fmt.Errorf("%s: %w", j.name, err))
				continue
			}
			lat[i] = append(lat[i], ms(el))
			if got, want := statsOf(res), statsOf(j.res); got != want {
				t.check(fmt.Errorf("%s: simulated statistics differ from the set-up run: got %+v, want %+v", j.name, got, want))
			} else {
				t.check(nil)
			}
			if tr != nil {
				w.record(tr, j, t0, el, res)
			}
		}
	}
	return lat, nil
}

// record adds one traced run to the totals and to the spans: the run,
// the agent transform's Work calls (CLU only) and, inside them, the
// trace generator's.
func (w *engineWorkload) record(tr *tracer, j *job, t0 time.Time, el time.Duration, res *engine.Result) {
	tt := &w.traced
	tt.runs++
	tt.runNs += el
	tt.workNs += w.work.ns
	tt.workCalls += w.work.calls
	tt.ops += w.work.ops
	tt.memops += w.work.memops
	tt.workAllocs += w.work.allocs
	tt.l1Accesses += res.L1.Reads + res.L1.Writes + res.L1.BypassedReads
	tt.cycles += res.Cycles

	start := tr.since(t0)
	child := w.work.ns
	if j.clu {
		child = w.transform.ns
	}
	parent := tr.add(span{Name: "engine.Run " + j.name, StartUS: start, DurUS: us(el), SelfUS: us(el - child)})
	if j.clu {
		self := w.transform.ns - w.work.ns
		tt.transformNs += self
		parent = tr.add(span{Parent: parent, Name: "core.Work", StartUS: start, DurUS: us(w.transform.ns),
			SelfUS: us(self), Calls: w.transform.calls, AllocBytes: w.transform.allocs - w.work.allocs})
	}
	tr.add(span{Parent: parent, Name: "workloads.Work", StartUS: start, DurUS: us(w.work.ns),
		SelfUS: us(w.work.ns), Calls: w.work.calls, AllocBytes: w.work.allocs})
}

func (w *engineWorkload) layers(m metricSet, base *phase) error {
	samples := make([]simSample, len(w.jobs))
	for i, j := range w.jobs {
		samples[i] = sampleOf(j.res)
	}
	setSimLayers(m, samples)
	tt := w.traced
	if tt.runs == 0 {
		return fmt.Errorf("no traced run completed")
	}
	runs := float64(tt.runs)
	opsPerRun := float64(tt.ops) / runs
	m.set("workloads.work_calls", float64(tt.workCalls)/runs)
	m.set("workloads.ops", opsPerRun)
	m.set("workloads.work_share", tt.workNs.Seconds()/tt.runNs.Seconds())
	m.set("workloads.alloc_mb_per_run", float64(tt.workAllocs)/mib/runs)
	m.set("kernel.memops", float64(tt.memops)/runs)
	m.set("kernel.txn_per_memop", float64(tt.l1Accesses)/float64(tt.memops))
	m.set("core.transform_share", tt.transformNs.Seconds()/tt.runNs.Seconds())
	m.set("engine.runs", runs)
	// Warp ops per host ms of the untraced half is kops per second. Both
	// halves run whole rounds, so every job weighs the same in each.
	m.set("engine.sim_kops_per_s", opsPerRun/base.meanMS())
	m.set("engine.ops_per_cycle", float64(tt.ops)/float64(tt.cycles))
	return nil
}

func (w *engineWorkload) openLoop() bool { return false }

func (w *engineWorkload) close() {}

// checkTarget compares a simulated cycle count with the committed
// calibration target of (arch, app): a BSL run must take exactly the
// target's cycles, and a CLU run must give exactly the target's speedup
// over them.
func checkTarget(ref *calib.Reference, archName, app string, clu bool, cycles int64) error {
	tg, err := ref.TargetFor(archName, app)
	if err != nil {
		return err
	}
	if !clu {
		if cycles != tg.Cycles {
			return fmt.Errorf("%s/BSL@%s: %d cycles, calibration target %d", app, archName, cycles, tg.Cycles)
		}
		return nil
	}
	if cycles <= 0 {
		return fmt.Errorf("%s/CLU@%s: %d cycles", app, archName, cycles)
	}
	if sp := float64(tg.Cycles) / float64(cycles); sp != tg.Speedup {
		return fmt.Errorf("%s/CLU@%s: speedup %v, calibration target %v", app, archName, sp, tg.Speedup)
	}
	return nil
}

// checkInvariants checks a run the calibration reference does not
// cover (the chiplet variants): every CTA retired after its dispatch,
// and no more interposer crossings than DRAM reads.
func checkInvariants(name string, res *engine.Result, ctas int) error {
	if res.Cycles <= 0 {
		return fmt.Errorf("%s: %d cycles", name, res.Cycles)
	}
	if res.Mem.RemoteL2Transactions > res.Mem.DRAMReads {
		return fmt.Errorf("%s: %d remote L2 transactions exceed %d DRAM reads", name, res.Mem.RemoteL2Transactions, res.Mem.DRAMReads)
	}
	if len(res.CTAs) != ctas {
		return fmt.Errorf("%s: %d CTA records for %d CTAs", name, len(res.CTAs), ctas)
	}
	for _, c := range res.CTAs {
		if c.Retired < c.Dispatched {
			return fmt.Errorf("%s: CTA %d retired at cycle %d before its dispatch at %d", name, c.CTA, c.Retired, c.Dispatched)
		}
	}
	return nil
}

// simSample is the simulated outcome of one distinct result a workload
// checks; res is nil where only a summary is visible (sweep cells, ctad
// responses).
type simSample struct {
	cycles    int64
	occupancy float64
	l1Hit     float64
	l2ReadTxn uint64
	res       *engine.Result
}

func sampleOf(r *engine.Result) simSample {
	return simSample{cycles: r.Cycles, occupancy: r.AchievedOccupancy, l1Hit: r.L1.HitRate(), l2ReadTxn: r.L2ReadTransactions(), res: r}
}

// setSimLayers sets the simulated-statistics metrics: means over the
// distinct results the workload checks, so they repeat exactly and must
// not move under a host-only change.
func setSimLayers(m metricSet, samples []simSample) {
	if len(samples) == 0 {
		return
	}
	var cyc, occ, hit, l2r []float64
	var l1acc, l2w, l2hit, dramR, dramW, remote, ipMB []float64
	for _, s := range samples {
		cyc = append(cyc, float64(s.cycles))
		occ = append(occ, s.occupancy)
		hit = append(hit, s.l1Hit)
		l2r = append(l2r, float64(s.l2ReadTxn))
		if r := s.res; r != nil {
			l1acc = append(l1acc, float64(r.L1.Accesses()))
			l2w = append(l2w, float64(r.Mem.WriteTransactions))
			l2hit = append(l2hit, r.L2.HitRate())
			dramR = append(dramR, float64(r.Mem.DRAMReads))
			dramW = append(dramW, float64(r.Mem.DRAMWrites))
			remote = append(remote, float64(r.Mem.RemoteL2Transactions))
			ipMB = append(ipMB, float64(r.Mem.InterposerBytes)/mib)
		}
	}
	m.set("engine.sim_cycles", mean(cyc))
	m.set("engine.achieved_occupancy", mean(occ))
	m.set("cache.l1_hit_rate", mean(hit))
	m.set("mem.l2_read_txn", mean(l2r))
	m.set("cache.l1_accesses", mean(l1acc))
	m.set("mem.l2_write_txn", mean(l2w))
	m.set("mem.l2_hit_rate", mean(l2hit))
	m.set("mem.dram_reads", mean(dramR))
	m.set("mem.dram_writes", mean(dramW))
	m.set("mem.remote_txn", mean(remote))
	m.set("mem.interposer_mb", mean(ipMB))
}
