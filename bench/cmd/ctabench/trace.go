package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ctacluster/internal/kernel"
)

// workClock accumulates the Work calls of one wrapped layer during one
// engine.Run. The engine calls Work from its single event loop, so the
// clock needs no locking.
type workClock struct {
	calls       int
	ns          time.Duration
	allocs      uint64
	ops, memops int // counted only by the innermost (trace generator) wrapper
}

// timedKernel is the traced run's timing wrapper: it times every Work
// call of the kernel it wraps and records the heap bytes the call
// allocated. The allocation count is the runtime's, which is exact over
// a whole run and settles per span of memory within it.
//
// It forwards the optional methods callers probe for: Reset, which the
// engine calls before each launch (agent kernels clear their binding
// counters there), and kernel.RefDescriber, which the clustering
// transforms in internal/core read. Every kernel the benchmark wraps
// implements RefDescriber, so forwarding both unconditionally leaves
// the program the engine runs unchanged.
type timedKernel struct {
	kernel.Kernel
	clock    *workClock
	countOps bool
	meter    *allocMeter
}

func newTimedKernel(k kernel.Kernel, clock *workClock, countOps bool) *timedKernel {
	return &timedKernel{Kernel: k, clock: clock, countOps: countOps, meter: newAllocMeter()}
}

func (k *timedKernel) Work(l kernel.Launch) kernel.CTAWork {
	a0 := k.meter.read()
	t0 := time.Now()
	w := k.Kernel.Work(l)
	k.clock.ns += time.Since(t0)
	k.clock.allocs += k.meter.read() - a0
	k.clock.calls++
	if k.countOps {
		for _, ops := range w.Warps {
			k.clock.ops += len(ops)
			for _, op := range ops {
				if op.Kind == kernel.OpMem {
					k.clock.memops++
				}
			}
		}
	}
	return w
}

func (k *timedKernel) Reset() {
	if r, ok := k.Kernel.(interface{ Reset() }); ok {
		r.Reset()
	}
}

func (k *timedKernel) ArrayRefs() []kernel.ArrayRef {
	if rd, ok := k.Kernel.(kernel.RefDescriber); ok {
		return rd.ArrayRefs()
	}
	return nil
}

// span is one timed interval of the traced half. A span with Calls > 1
// aggregates that many calls inside its parent; its StartUS is the
// parent's.
type span struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent,omitempty"`
	Name       string  `json:"name"`
	StartUS    float64 `json:"start_us"`
	DurUS      float64 `json:"dur_us"`
	SelfUS     float64 `json:"self_us"`
	Calls      int     `json:"calls,omitempty"`
	AllocBytes uint64  `json:"alloc_bytes,omitempty"`
	Note       string  `json:"note,omitempty"`
}

// tracer holds the traced half's spans and CPU profile in memory until
// the run ends.
type tracer struct {
	start   time.Time
	spans   []span
	profile bytes.Buffer
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.start)) / float64(time.Microsecond)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// write stores the spans, the run's environment and its per-layer
// metrics in <traceDir>/spans.json.
func (t *tracer) write(o options, m metricSet) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload   string    `json:"workload"`
		Seed       int64     `json:"seed"`
		Seconds    float64   `json:"seconds"`
		NumCPU     int       `json:"nproc"`
		GOMAXPROCS int       `json:"gomaxprocs"`
		GoVersion  string    `json:"go_version"`
		Metrics    metricSet `json:"metrics"`
		Spans      []span    `json:"spans"`
	}{o.workload, o.seed, o.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), m, t.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.traceDir, "spans.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
