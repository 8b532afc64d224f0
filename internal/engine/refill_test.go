package engine_test

// The refill contract: a kernel that hands its CTAs' traces to the
// engine in chunks, through kernel.CTAWork.More, runs exactly as the
// same ops generated whole at dispatch. The agent-based clustering
// transform relies on it to emit one task at a time.

import (
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/prof"
)

const (
	chunkWarps  = 4
	chunkCount  = 8
	chunkedCTAs = 96
)

// chunkKernel's CTAs emit chunkCount chunks laid out to meet each case
// a refill must get right:
//   - chunk 0 ends with loads in flight, which a chunk boundary must not
//     drain;
//   - chunk 1 ends with a barrier;
//   - chunk 2 ends with a gather, its lane ops last;
//   - in chunks 3-5 warp 0 runs one short op while the other warps
//     issue load chains, so warp 0 runs a whole chunk ahead and the
//     others must keep their unconsumed ops across its refills;
//   - chunk 6 is empty for warp 0;
//   - chunk 7 meets at a barrier and stores.
//
// With whole set, Work emits every chunk at dispatch instead.
type chunkKernel struct{ whole bool }

func (k *chunkKernel) Name() string                      { return "chunks" }
func (k *chunkKernel) GridDim() kernel.Dim3              { return kernel.Dim1(chunkedCTAs) }
func (k *chunkKernel) BlockDim() kernel.Dim3             { return kernel.Dim1(chunkWarps * 32) }
func (k *chunkKernel) WarpsPerCTA() int                  { return chunkWarps }
func (k *chunkKernel) RegsPerThread(arch.Generation) int { return 16 }
func (k *chunkKernel) SharedMemPerCTA() int              { return 0 }

// chunk appends chunk i of warp w of CTA cta to ops.
func chunk(ops []kernel.Op, cta, w, i int) []kernel.Op {
	// Neighbouring CTAs share lines, so L1 hits and hit-reserved
	// accesses occur too.
	base := uint64(0x100000 + (cta%8)*0x1000 + w*0x400)
	switch i {
	case 0:
		return append(ops, kernel.Compute(3), kernel.Load(base, 4, 32, 4), kernel.Load(base+0x800000, 4, 32, 4))
	case 1:
		return append(ops, kernel.Load(base+128, 4, 32, 4), kernel.Compute(2+w), kernel.Barrier())
	case 2:
		return kernel.AppendGather(append(ops, kernel.Compute(1)), 4, base, base+4096, base+9000, uint64(cta)*64, base+256)
	case 3, 4, 5:
		if w == 0 {
			return append(ops, kernel.Compute(1))
		}
		for j := range 8 {
			ops = append(ops, kernel.Load(base+uint64(i*0x10000+j*256), 4, 32, 4), kernel.Compute(4))
		}
		return ops
	case 6:
		if w == 0 {
			return ops
		}
		return append(ops, kernel.Compute(5))
	default:
		return append(ops, kernel.Barrier(), kernel.Store(base, 4, 32, 4))
	}
}

func (k *chunkKernel) Work(l kernel.Launch) kernel.CTAWork {
	ws := l.WarpBufs(chunkWarps)
	appendChunk := func(buf [][]kernel.Op, i int) {
		for w := range buf {
			buf[w] = chunk(buf[w], l.CTA, w, i)
		}
	}
	appendChunk(ws, 0)
	if k.whole {
		for i := 1; i < chunkCount; i++ {
			appendChunk(ws, i)
		}
		return kernel.CTAWork{Warps: ws}
	}
	next := 1
	return kernel.CTAWork{Warps: ws, More: func(buf [][]kernel.Op) ([][]kernel.Op, bool) {
		appendChunk(buf, next)
		next++
		return buf, next < chunkCount
	}}
}

// TestRefillMatchesWholeTrace runs chunkKernel with its chunks refilled
// by the engine and generated whole, and requires equal Results and
// full-mask profiler streams, on a 128-byte-line L1 with round-robin
// dispatch and a sectored L1 with the random scheduler.
func TestRefillMatchesWholeTrace(t *testing.T) {
	for _, ar := range []*arch.Arch{arch.TeslaK40(), arch.GTX750Ti()} {
		run := func(k kernel.Kernel) (*engine.Result, *prof.Trace) {
			tr := prof.NewTrace(prof.TraceConfig{
				Kernel: k.Name(), Arch: ar.Name, SMs: ar.SMs,
				Events: prof.MaskAll, SampleInterval: 500,
			})
			cfg := engine.DefaultConfig(ar)
			cfg.Profiler = tr
			res, err := engine.Run(cfg, k)
			if err != nil {
				t.Fatalf("%s: %v", ar.Name, err)
			}
			return res, tr
		}
		want, wantTr := run(&chunkKernel{whole: true})
		got, gotTr := run(&chunkKernel{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: refilled run differs from the whole-trace run (cycles %d vs %d, L1 %+v vs %+v)",
				ar.Name, got.Cycles, want.Cycles, got.L1, want.L1)
		}
		if !reflect.DeepEqual(gotTr.Events(), wantTr.Events()) || !reflect.DeepEqual(gotTr.Snapshots(), wantTr.Snapshots()) {
			t.Errorf("%s: refilled prof stream differs from the whole-trace one (%d vs %d events)",
				ar.Name, len(gotTr.Events()), len(wantTr.Events()))
		}
	}
}
