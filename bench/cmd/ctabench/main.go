// Command ctabench is the repository's end-to-end and per-layer
// benchmark. It drives the simulator from outside, through its public
// entry points only — eval.EvaluateAll, engine.Run, core.NewAgent,
// arch.WithChiplets and the ctad handler behind a loopback HTTP server —
// checks every output it gets, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	go -C bench run ./cmd/ctabench --workload <name> --seed <n> ...
//
// run.sh builds into .bench_build/ and keeps the go command's caches
// there too. The benchmark is a module of its own (bench/go.mod), so the
// repository's `go test ./...` does not reach it; `go -C bench test ./...`
// runs its tests.
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the first half of the run is measured as usual and the
// second half under the Work timing wrapper and a CPU profile, and the
// result carries the per-layer metrics. bench/README.md defines every
// workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"
)

// A run sets its workload up setupReps times and reports the median as
// setup_s, so one slow start does not move it.
const setupReps = 5

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run prints: what a user of the
// simulator or of ctad sees. An "operation" is one two-platform sweep
// (paper-sweep), one engine.Run (trace-heavy, stream-write-2die) or one
// HTTP request timed from its due time (serve-mix); phase.opMS says which
// statistic op_ms is.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// layers are the CPU-profile buckets of the traced run (see bucket).
var layers = []string{
	"workloads", "kernel", "core", "engine", "cache", "mem", "eval",
	"rescache", "server", "api", "net", "runtime", "client", "other",
}

// perLayer are the metrics a traced run prints. Every workload prints
// all of them; a layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio"})
	}
	return append(defs,
		metricDef{"trace.overhead", "ratio"},
		metricDef{"trace.cpu_samples", "count"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"eval.parallel_efficiency", "ratio"},
		metricDef{"workloads.work_calls", "count"},
		metricDef{"workloads.ops", "count"},
		metricDef{"workloads.work_share", "ratio"},
		metricDef{"workloads.alloc_mb_per_run", "MB"},
		metricDef{"kernel.memops", "count"},
		metricDef{"kernel.txn_per_memop", "ratio"},
		metricDef{"core.transform_share", "ratio"},
		metricDef{"engine.runs", "count"},
		metricDef{"engine.sim_kops_per_s", "kops/s"},
		metricDef{"engine.sim_cycles", "count"},
		metricDef{"engine.ops_per_cycle", "ratio"},
		metricDef{"engine.achieved_occupancy", "ratio"},
		metricDef{"cache.l1_accesses", "count"},
		metricDef{"cache.l1_hit_rate", "ratio"},
		metricDef{"mem.l2_read_txn", "count"},
		metricDef{"mem.l2_write_txn", "count"},
		metricDef{"mem.l2_hit_rate", "ratio"},
		metricDef{"mem.dram_reads", "count"},
		metricDef{"mem.dram_writes", "count"},
		metricDef{"mem.remote_txn", "count"},
		metricDef{"mem.interposer_mb", "MB"},
		metricDef{"rescache.hits", "count"},
		metricDef{"rescache.misses", "count"},
		metricDef{"rescache.joined", "count"},
		metricDef{"rescache.hit_ratio", "ratio"},
		metricDef{"server.executions", "count"},
		metricDef{"server.rejected", "count"},
		metricDef{"api.resp_bytes", "B"},
		metricDef{"client.op_ms_p50", "ms"},
		metricDef{"client.op_ms_p90", "ms"},
		metricDef{"client.conns", "count"},
		metricDef{"client.late_sends", "count"},
	)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps a metric name to its value; set refuses names outside
// the definition list it was created from.
type metricSet map[string]metricValue

func newMetrics(defs []metricDef) metricSet {
	m := metricSet{}
	for _, d := range defs {
		m[d.name] = metricValue{Unit: d.unit}
	}
	return m
}

func (m metricSet) set(name string, v float64) {
	mv, ok := m[name]
	if !ok {
		panic("ctabench: undefined metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	mv.Value = v
	m[name] = mv
}

// output is the result line.
type output struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// tally counts checked operations: every operation whose output fails a
// check counts as failed. Safe for concurrent use.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	firstErr          error
}

func (t *tally) check(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// workload is one benchmark workload.
type workload interface {
	// setup builds the inputs and the reference outputs the loop checks
	// against. run calls it several times; setup_s is the median.
	setup(t *tally) error
	// measure runs the workload's loop for about d and returns the wall
	// time of every operation in ms, grouped by job: the distinct
	// simulations an engine workload repeats, or a single group. With tr
	// non-nil it records spans and the per-layer counters its layers
	// method reports.
	measure(d time.Duration, tr *tracer, t *tally) ([][]float64, error)
	// openLoop reports whether operations are sent on a schedule and
	// timed from their due time, rather than each after the last.
	openLoop() bool
	// layers sets the workload's own per-layer metrics; base is the
	// untraced half of the traced run.
	layers(m metricSet, base *phase) error
	// close releases what setup acquired.
	close()
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: paper-sweep, trace-heavy, stream-write-2die or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed ordering the runs and picking serve-mix keys")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured time of the run in seconds")
	flag.IntVar(&trace, "trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "directory a traced run writes spans.json to")
	flag.Parse()
	if err := mainErr(o, trace); err != nil {
		fmt.Fprintln(os.Stderr, "ctabench:", err)
		os.Exit(1)
	}
}

// mainErr checks the flags, runs the workload and prints the result line.
func mainErr(o options, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", o.seconds)
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ctabench: workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d go=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	out, err := run(w, o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// newWorkload builds a workload at its full benchmark size.
func newWorkload(name string, seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "paper-sweep":
		return newSweepWorkload(rng, []string{"TeslaK40", "GTX980"}, nil, []string{"NW", "MVT"}), nil
	case "trace-heavy":
		return newEngineWorkload(rng, traceHeavyJobs), nil
	case "stream-write-2die":
		return newEngineWorkload(rng, streamWriteJobs), nil
	case "serve-mix":
		return newServeWorkload(rng, serveApps, 40, 100), nil
	case "":
		return nil, errors.New("--workload is required")
	}
	return nil, fmt.Errorf("unknown workload %q (known: paper-sweep, trace-heavy, stream-write-2die, serve-mix)", name)
}

// run sets w up, measures it and assembles the result.
func run(w workload, o options) (*output, error) {
	defer w.close()
	var t tally
	var reps []float64
	for range setupReps {
		start := time.Now()
		if err := w.setup(&t); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		reps = append(reps, time.Since(start).Seconds())
	}
	d := time.Duration(o.seconds * float64(time.Second))

	var m metricSet
	if !o.trace {
		p, err := measurePhase(w, d, nil, &t)
		if err != nil {
			return nil, err
		}
		m = newMetrics(endToEnd)
		setEndToEnd(m, median(reps), p)
	} else {
		base, err := measurePhase(w, d/2, nil, &t)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := measurePhase(w, d/2, tr, &t)
		if err != nil {
			return nil, err
		}
		m = newMetrics(perLayer)
		if err := setLayers(m, base, traced, tr); err != nil {
			return nil, err
		}
		if err := w.layers(m, base); err != nil {
			return nil, err
		}
		logTraced(median(reps), base, traced)
		if err := tr.write(o, m); err != nil {
			return nil, err
		}
	}
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "ctabench: %d of %d operations failed; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	return &output{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

func setEndToEnd(m metricSet, setupS float64, p *phase) {
	m.set("setup_s", setupS)
	m.set("op_ms", p.opMS())
	m.set("alloc_mb_per_op", p.allocMBPerOp())
	m.set("peak_rss_mb", p.peakRSS)
}

// setLayers sets the per-layer metrics every workload has: the CPU
// profile's layer shares, the runtime's GC share, the tracing overhead
// against the untraced half, and that half's median and tail latency.
func setLayers(m metricSet, base, traced *phase, tr *tracer) error {
	shares, n, err := layerShares(tr.profile.Bytes())
	if err != nil {
		return err
	}
	for _, l := range layers {
		m.set(l+".cpu_share", shares[l])
	}
	m.set("trace.cpu_samples", float64(n))
	m.set("trace.overhead", traced.opMS()/base.opMS()-1)
	m.set("client.op_ms_p50", base.pctMS(50))
	m.set("client.op_ms_p90", base.pctMS(90))
	m.set("runtime.gc_cpu_share", traced.gcCPU/traced.usedCPU)
	m.set("runtime.gc_cycles", float64(traced.gcCycles))
	m.set("eval.parallel_efficiency", traced.cpu.Seconds()/(traced.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	return nil
}

// logTraced prints the traced run's own end-to-end numbers for both
// halves, so the tracing overhead can be read off directly.
func logTraced(setupS float64, base, traced *phase) {
	fmt.Fprintf(os.Stderr, "ctabench: setup_s=%.4g\n", setupS)
	for _, h := range []struct {
		name string
		p    *phase
	}{{"untraced", base}, {"traced", traced}} {
		fmt.Fprintf(os.Stderr, "ctabench: %s half: %d ops, op_ms=%.4g p50=%.4g p90=%.4g alloc_mb_per_op=%.4g peak_rss_mb=%.4g\n",
			h.name, h.p.ops(), h.p.opMS(), h.p.pctMS(50), h.p.pctMS(90), h.p.allocMBPerOp(), h.p.peakRSS)
	}
}
