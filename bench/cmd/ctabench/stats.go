package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const mib = 1 << 20

// phase is one measured stretch of a run.
type phase struct {
	jobs     [][]float64 // wall time of each operation in ms, by job
	openLoop bool        // the workload's openLoop
	wall     time.Duration
	cpu      time.Duration // process user + system CPU time
	allocs   uint64        // heap bytes allocated
	gcCycles uint64
	// Runtime estimates of GC and busy (non-idle) CPU time, in seconds.
	gcCPU, usedCPU float64
	peakRSS        float64 // VmHWM at the end of the phase, MB
}

// measurePhase runs w for d and records what the process spent. With tr
// non-nil the phase runs under the CPU profiler, which writes into
// tr.profile.
func measurePhase(w workload, d time.Duration, tr *tracer, t *tally) (*phase, error) {
	if tr != nil {
		if err := pprof.StartCPUProfile(&tr.profile); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	before, cpu0 := readRuntime(), processCPU()
	start := time.Now()
	jobs, err := w.measure(d, tr, t)
	wall := time.Since(start)
	cpu1, after := processCPU(), readRuntime()
	if tr != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	p := &phase{
		jobs:     jobs,
		openLoop: w.openLoop(),
		wall:     wall,
		cpu:      cpu1 - cpu0,
		allocs:   after.allocs - before.allocs,
		gcCycles: after.gcCycles - before.gcCycles,
		gcCPU:    after.gcCPU - before.gcCPU,
		usedCPU:  after.usedCPU - before.usedCPU,
		peakRSS:  rss,
	}
	for _, j := range jobs {
		if len(j) == 0 {
			return nil, fmt.Errorf("a job completed no operation in %v", d)
		}
	}
	return p, nil
}

type runtimeCounters struct {
	allocs, gcCycles uint64
	gcCPU, usedCPU   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		usedCPU:  s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

// allocMeter reads the process's cumulative heap allocation. It keeps
// its own sample buffer so a read allocates nothing; one meter must not
// be read from two goroutines at once.
type allocMeter struct {
	s [1]metrics.Sample
}

func newAllocMeter() *allocMeter {
	m := &allocMeter{}
	m.s[0].Name = "/gc/heap/allocs:bytes"
	return m
}

func (m *allocMeter) read() uint64 {
	metrics.Read(m.s[:])
	return m.s[0].Value.Uint64()
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

func (p *phase) ops() int {
	n := 0
	for _, j := range p.jobs {
		n += len(j)
	}
	return n
}

// opMS is the operation time op_ms reports. A closed loop repeats each
// job, and bursts of load from other tenants of the host slow some
// repetitions by up to 2x, so there it is each job's fastest repetition,
// averaged over the jobs: what an operation costs when nothing else
// runs. An open loop times each request from its due time, so that
// waiting counts; there it is the median.
func (p *phase) opMS() float64 {
	if p.openLoop {
		return p.pctMS(50)
	}
	return p.pctMS(0)
}

// pctMS is the pct-th percentile operation time, taken per job and
// averaged over the jobs, so every job weighs the same in every run
// however close together their times lie.
func (p *phase) pctMS(pct float64) float64 {
	var sum float64
	for _, j := range p.jobs {
		sum += percentile(j, pct)
	}
	return sum / float64(len(p.jobs))
}

func (p *phase) allocMBPerOp() float64 { return float64(p.allocs) / mib / float64(p.ops()) }

// meanMS is the mean operation time.
func (p *phase) meanMS() float64 {
	var sum float64
	for _, j := range p.jobs {
		for _, x := range j {
			sum += x
		}
	}
	return sum / float64(p.ops())
}

// percentile interpolates linearly between the closest ranks of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
