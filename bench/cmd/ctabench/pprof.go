package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSample is one CPU-profile sample: its call stack, leaf first, and
// the CPU time it stands for.
type cpuSample struct {
	stack []string
	ns    int64
}

// layerShares decodes a gzipped pprof CPU profile (runtime/pprof's
// output) and returns each layer's share of the sampled CPU time and
// the number of samples. The shares sum to 1 when there is a sample.
func layerShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("CPU profile: %w", err)
	}
	samples, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("CPU profile: %w", err)
	}
	return shares(samples), len(samples), nil
}

func shares(samples []cpuSample) map[string]float64 {
	out := map[string]float64{}
	var total float64
	for _, s := range samples {
		out[bucket(s.stack)] += float64(s.ns)
		total += float64(s.ns)
	}
	if total > 0 {
		for l := range out {
			out[l] /= total
		}
	}
	return out
}

const repoPrefix = "ctacluster/internal/"

// isBench reports whether fn is the benchmark's own code: package main
// in the binary, its import path in a test binary.
func isBench(fn string) bool {
	return strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "ctacluster/bench/")
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/")
}

// bucket assigns a sample to a layer:
//   - a background GC worker's sample is runtime;
//   - otherwise the layer is the package of the leaf-most
//     ctacluster/internal frame, so runtime frames (allocation, GC
//     assists) count for the repo code that called them; cache frames
//     called from mem are the L2 and count as mem;
//   - the benchmark's own frames (load generator, checks, timing
//     wrapper) are client;
//   - a sample with no repo frame is net when it has net or net/http
//     frames, runtime when it is all runtime frames, and other else.
func bucket(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			return "runtime"
		}
	}
	for i, fn := range stack {
		if isBench(fn) {
			return "client"
		}
		pkg, ok := repoPackage(fn)
		if !ok {
			continue
		}
		if pkg == "cache" {
			for _, caller := range stack[i+1:] {
				if p, ok := repoPackage(caller); ok && p != "cache" {
					if p == "mem" {
						return "mem"
					}
					break
				}
			}
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	onlyRuntime := true
	for _, fn := range stack {
		if strings.HasPrefix(fn, "net/") || strings.HasPrefix(fn, "net.") {
			return "net"
		}
		if !isRuntime(fn) {
			onlyRuntime = false
		}
	}
	if onlyRuntime {
		return "runtime"
	}
	return "other"
}

// repoPackage returns the first path element under ctacluster/internal
// of a function name such as "ctacluster/internal/engine.(*sim).loop".
func repoPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// decodeProfile reads the fields of a profile.proto message the layer
// attribution needs: sample types, samples, locations, functions and
// the string table. It takes the CPU-time value of each sample.
func decodeProfile(data []byte) ([]cpuSample, error) {
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		valueTypes []int64 // string index of each sample type's name
		raws       []rawSample
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames  = map[uint64]int64{}    // function id -> string index
		strs       []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					typ = int64(v)
				}
				return nil
			})
			valueTypes = append(valueTypes, typ)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// runtime/pprof's CPU profiles carry [samples/count, cpu/nanoseconds].
	vi := len(valueTypes) - 1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	out := make([]cpuSample, 0, len(raws))
	for _, r := range raws {
		if vi < 0 || vi >= len(r.values) {
			return nil, errors.New("sample without a CPU value")
		}
		s := cpuSample{ns: r.values[vi]}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// Protocol-buffer wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// eachField calls fn for every field of the message in data with its
// number, wire type and either its varint value or its bytes.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case wire64:
			if len(data) < 8 {
				return errors.New("truncated fixed64")
			}
			data = data[8:]
		case wire32:
			if len(data) < 4 {
				return errors.New("truncated fixed32")
			}
			data = data[4:]
		case wireBytes:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint walks a repeated integer field, packed or not.
func eachVarint(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == wireVarint {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
