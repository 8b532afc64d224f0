package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketRules(t *testing.T) {
	const (
		engineLoop = "ctacluster/internal/engine.(*sim).loop"
		memRead    = "ctacluster/internal/mem.(*System).Read"
		cacheRead  = "ctacluster/internal/cache.(*Cache).Read"
	)
	for _, tc := range []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"cache under mem is mem", []string{cacheRead, "ctacluster/internal/cache.(*Cache).lookup", memRead, engineLoop}, "mem"},
		{"cache under engine stays cache", []string{cacheRead, engineLoop}, "cache"},
		{"mallocgc under engine is engine", []string{"runtime.mallocgc", "runtime.newobject", engineLoop, "main.main"}, "engine"},
		{"GC assist under engine is engine", []string{"runtime.gcAssistAlloc", "runtime.mallocgc", engineLoop}, "engine"},
		{"background mark worker is runtime", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime"},
		{"pure runtime is runtime", []string{"runtime.sweepone", "runtime.bgsweep", "runtime.goexit"}, "runtime"},
		{"net/http alone is net", []string{"syscall.read", "net.(*conn).Read", "net/http.(*persistConn).readLoop"}, "net"},
		{"server handler is server", []string{"encoding/json.(*decodeState).object", "ctacluster/internal/server.decode", "net/http.serverHandler.ServeHTTP"}, "server"},
		{"sub-package counts for its parent", []string{"ctacluster/internal/server/client.(*Client).Simulate"}, "server"},
		{"benchmark binary frames are client", []string{"main.(*timedKernel).Work", "ctacluster/internal/engine.(*sim).dispatchTo"}, "client"},
		{"benchmark test frames are client", []string{"ctacluster/bench/cmd/ctabench.(*tally).check"}, "client"},
		{"unlisted repo package is other", []string{"ctacluster/internal/prof.(*Trace).Emit", engineLoop}, "other"},
		{"stdlib without repo frames is other", []string{"strconv.FormatFloat", "fmt.Sprintf"}, "other"},
	} {
		if got := bucket(tc.stack); got != tc.want {
			t.Errorf("%s: bucket(%q) = %q, want %q", tc.name, tc.stack, got, tc.want)
		}
	}
}

// pbWriter encodes the protobuf wire format, enough to build test
// profiles.
type pbWriter struct{ b []byte }

func (w *pbWriter) key(num, wire int) { w.b = binary.AppendUvarint(w.b, uint64(num<<3|wire)) }

func (w *pbWriter) uint(num int, v uint64) {
	w.key(num, wireVarint)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *pbWriter) bytes(num int, b []byte) {
	w.key(num, wireBytes)
	w.b = binary.AppendUvarint(w.b, uint64(len(b)))
	w.b = append(w.b, b...)
}

func (w *pbWriter) msg(num int, build func(*pbWriter)) {
	var m pbWriter
	build(&m)
	w.bytes(num, m.b)
}

func (w *pbWriter) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	w.bytes(num, p)
}

// syntheticProfile builds a gzipped profile.proto in runtime/pprof's
// layout: sample types [samples/count, cpu/nanoseconds], one location
// per function except location 10, which holds an inlined pair.
func syntheticProfile(t *testing.T) []byte {
	funcs := []string{
		"ctacluster/internal/cache.(*Cache).Read",   // 1
		"ctacluster/internal/mem.(*System).Read",    // 2
		"ctacluster/internal/engine.(*sim).loop",    // 3
		"runtime.mallocgc",                          // 4
		"runtime.scanobject",                        // 5
		"runtime.gcBgMarkWorker",                    // 6
		"net/http.(*persistConn).readLoop",          // 7
		"ctacluster/internal/workloads.warpRange",   // 8
		"ctacluster/internal/workloads.newMM.func1", // 9, inlined into 8
	}
	strs := append([]string{"", "samples", "count", "cpu", "nanoseconds"}, funcs...)
	var w pbWriter
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		w.msg(1, func(m *pbWriter) { m.uint(1, vt[0]); m.uint(2, vt[1]) })
	}
	// Samples: leaf-first location ids and [count, ns]. Location ids
	// equal function ids, except that location 10 is the inlined pair.
	for _, s := range []struct {
		locs   []uint64
		ns     uint64
		packed bool
	}{
		{[]uint64{1, 2, 3}, 30, true}, // cache under mem: mem
		{[]uint64{4, 3}, 20, false},   // mallocgc under engine: engine
		{[]uint64{5, 6}, 10, true},    // GC worker: runtime
		{[]uint64{7}, 15, false},      // net/http only: net
		{[]uint64{10, 3}, 25, true},   // inlined generator: workloads
	} {
		w.msg(2, func(m *pbWriter) {
			if s.packed {
				m.packed(1, s.locs...)
			} else {
				for _, l := range s.locs {
					m.uint(1, l)
				}
			}
			m.packed(2, 1, s.ns)
		})
	}
	for id := uint64(1); id <= 8; id++ {
		w.msg(4, func(m *pbWriter) {
			m.uint(1, id)
			m.msg(4, func(l *pbWriter) { l.uint(1, id); l.uint(2, 7) })
		})
	}
	w.msg(4, func(m *pbWriter) {
		m.uint(1, 10)
		m.msg(4, func(l *pbWriter) { l.uint(1, 9) }) // innermost first
		m.msg(4, func(l *pbWriter) { l.uint(1, 8) })
	})
	for id := range funcs {
		w.msg(5, func(m *pbWriter) { m.uint(1, uint64(id+1)); m.uint(2, uint64(id+5)) })
	}
	for _, s := range strs {
		w.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(w.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLayerSharesSyntheticProfile(t *testing.T) {
	shares, n, err := layerShares(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("decoded %d samples, want 5", n)
	}
	want := map[string]float64{"mem": 0.3, "engine": 0.2, "runtime": 0.1, "net": 0.15, "workloads": 0.25}
	sum := 0.0
	for l, v := range shares {
		sum += v
		if math.Abs(v-want[l]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, v, want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

// TestLayerSharesRuntimeProfile decodes a real runtime/pprof profile.
func TestLayerSharesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := range 1000 {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	shares, n, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("no samples in a 300 ms busy loop (x=%d)", x)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares %v sum to %v, want 1", shares, sum)
	}
	if shares["client"] < 0.5 {
		t.Errorf("client share %v of a busy loop in the test binary, want most of it (shares %v)", shares["client"], shares)
	}
}
