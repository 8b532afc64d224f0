package core_test

// The Launch.Buf contract of kernel.Kernel.Work: every trace generator
// and every transform appends the CTA's ops to the Buf it is given and
// keeps the prefix already there. The engine relies on it to recycle one
// trace buffer per CTA slot, and the transforms to extend their
// accumulated traces in place instead of copying them.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/swizzle"
	"ctacluster/internal/workloads"
)

// contractArchs pairs a 128B-line L1 with static agent binding
// (TeslaK40) and a sectored L1 with dynamic binding (GTX980).
var contractArchs = []*arch.Arch{arch.TeslaK40(), arch.GTX980()}

// agentSchemes are the agent-transform configurations the conformance
// tests cover: clustering alone and with each of TOT, BPS and PFH.
var agentSchemes = []struct {
	name                  string
	tot, bypass, prefetch bool
}{
	{"CLU", false, false, false},
	{"TOT", true, false, false},
	{"BPS", false, true, false},
	{"PFH", false, false, true},
	{"TOT+BPS+PFH", true, true, true},
}

// wellFormed reports the first place a trace breaks the inline gather
// encoding: every gather or scatter head must be followed by exactly
// kernel.LaneOps(Lanes) lane ops, and a lane op may stand nowhere else.
func wellFormed(ops []kernel.Op) error {
	for i := 0; i < len(ops); {
		op := ops[i]
		if op.Kind == kernel.OpLanes {
			return fmt.Errorf("op %d: lane op without a gather head", i)
		}
		if op.Mem.Gather && op.Kind != kernel.OpMem {
			return fmt.Errorf("op %d: %s op marked as a gather", i, op.Kind)
		}
		span := op.Span()
		for j := i + 1; j < i+span; j++ {
			if j >= len(ops) || ops[j].Kind != kernel.OpLanes {
				return fmt.Errorf("op %d: %d-lane gather followed by %d lane ops, want %d",
					i, op.Mem.Lanes, j-i-1, span-1)
			}
		}
		i += span
	}
	return nil
}

// reset clears a kernel's per-launch state (the agent's binding
// counters), so repeated calls see the same state.
func reset(k kernel.Kernel) {
	if r, ok := k.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// checkAppends runs k.Work(l) with a nil Buf and again with a Buf whose
// warps hold sentinel prefixes of different lengths (with junk in their
// spare capacity, like a recycled trace), drains both continuations,
// and fails unless both calls return WarpsPerCTA warps and the second
// returns exactly each prefix followed by the first call's ops.
func checkAppends(t *testing.T, k kernel.Kernel, l kernel.Launch) {
	t.Helper()
	n := k.WarpsPerCTA()
	reset(k)
	l.Buf = nil
	want := kernel.Drain(k.Work(l))
	if want.Skip || len(want.Warps) != n {
		t.Fatalf("%s CTA %d: nil-Buf Work gave %d warps (skip %v), want %d", k.Name(), l.CTA, len(want.Warps), want.Skip, n)
	}
	buf := make([][]kernel.Op, n)
	prefix := make([][]kernel.Op, n)
	for w := range buf {
		p := make([]kernel.Op, w%3+8)
		for i := range p {
			p[i] = kernel.Barrier() // junk past the prefix
		}
		p = p[:w%3+1]
		for i := range p {
			p[i] = kernel.Compute(1000 + 10*w + i)
		}
		buf[w], prefix[w] = p, slices.Clone(p)
	}
	reset(k)
	l.Buf = buf
	got := kernel.Drain(k.Work(l))
	if len(got.Warps) != n {
		t.Fatalf("%s CTA %d: seeded Work gave %d warps, want %d", k.Name(), l.CTA, len(got.Warps), n)
	}
	for w, ops := range got.Warps {
		if exp := append(prefix[w], want.Warps[w]...); !slices.Equal(ops, exp) {
			t.Fatalf("%s CTA %d warp %d: seeded Work returned %d ops, want the %d-op prefix then the %d nil-Buf ops",
				k.Name(), l.CTA, w, len(ops), len(prefix[w]), len(want.Warps[w]))
		}
	}
}

// sampleCTAs checks the first, last and every fifth CTA of a grid.
func sampleCTAs(n int, f func(u int)) {
	for u := 0; u < n; u += 5 {
		f(u)
	}
	f(n - 1)
}

func TestWorkBufContract(t *testing.T) {
	for _, ar := range contractArchs {
		t.Run(ar.Name, func(t *testing.T) {
			for _, name := range workloads.Names() {
				app, err := workloads.New(name)
				if err != nil {
					t.Fatal(err)
				}
				sampleCTAs(app.GridDim().Count(), func(u int) {
					checkAppends(t, app, kernel.Launch{CTA: u, SM: u % ar.SMs})
				})
			}
			for _, stag := range []bool{false, true} {
				mb := workloads.NewMicrobench(ar, stag)
				sampleCTAs(mb.GridDim().Count(), func(u int) {
					checkAppends(t, mb, kernel.Launch{CTA: u, SM: u % ar.SMs})
				})
			}
			for _, name := range []string{"MM", "BFS", "BS"} {
				app, err := workloads.New(name)
				if err != nil {
					t.Fatal(err)
				}
				swz, err := swizzle.WrapFor("xor", app, ar)
				if err != nil {
					t.Fatal(err)
				}
				rd, err := core.Redirect(app, ar.SMs, app.Partition())
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []kernel.Kernel{swz, rd} {
					sampleCTAs(k.GridDim().Count(), func(u int) {
						checkAppends(t, k, kernel.Launch{CTA: u, SM: u % ar.SMs})
					})
				}
				agent, err := core.NewAgent(app, core.AgentConfig{
					Arch: ar, Indexing: app.Partition(), Bypass: true, Prefetch: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				// Agent 0 of every SM: Reset zeroes the dynamic binding
				// counters and slot 0 is agent 0 under static binding.
				for sm := 0; sm < ar.SMs; sm++ {
					checkAppends(t, agent, kernel.Launch{CTA: sm, SM: sm})
				}
			}
		})
	}
}

// TestAgentMatchesCopyingReference pins the in-place agent loop to the
// copying one it replaced (RefWork, export_test.go): for every app and
// scheme, every agent of the launched grid, dispatched in first-wave
// order through one recycled Buf and drained task by task through its
// continuation, gets exactly the reference's trace.
func TestAgentMatchesCopyingReference(t *testing.T) {
	for _, ar := range contractArchs {
		for _, name := range workloads.Names() {
			app, err := workloads.New(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range agentSchemes {
				cfg := core.AgentConfig{Arch: ar, Indexing: app.Partition(), Bypass: sc.bypass, Prefetch: sc.prefetch}
				if sc.tot {
					cfg.ActiveAgents = app.OptAgents(ar.Gen)
				}
				k, err := core.NewAgent(app, cfg)
				if err != nil {
					t.Fatalf("%s %s on %s: %v", name, sc.name, ar.Name, err)
				}
				ref, err := core.NewAgent(app, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf [][]kernel.Op
				for u := 0; u < k.GridDim().Count(); u++ {
					l := kernel.Launch{CTA: u, SM: u % ar.SMs, Slot: u / ar.SMs}
					want := ref.RefWork(l)
					for w := range buf {
						buf[w] = buf[w][:0]
					}
					l.Buf = buf
					got := kernel.Drain(k.Work(l))
					if got.Skip != want.Skip || len(got.Warps) != len(want.Warps) {
						t.Fatalf("%s %s on %s agent %d: skip %v with %d warps, reference skip %v with %d",
							name, sc.name, ar.Name, u, got.Skip, len(got.Warps), want.Skip, len(want.Warps))
					}
					for w := range got.Warps {
						if !slices.Equal(got.Warps[w], want.Warps[w]) {
							t.Fatalf("%s %s on %s agent %d warp %d: %d ops differ from the reference's %d",
								name, sc.name, ar.Name, u, w, len(got.Warps[w]), len(want.Warps[w]))
						}
					}
					if !got.Skip {
						buf = got.Warps
					}
				}
			}
		}
	}
}

// ignoresBuf is a kernel written without the Buf contract: it drops
// Launch.Buf, so every trace it returns is fresh storage.
type ignoresBuf struct{ kernel.Kernel }

func (k ignoresBuf) Work(l kernel.Launch) kernel.CTAWork {
	l.Buf = nil
	return k.Kernel.Work(l)
}

func (k ignoresBuf) Reset() { reset(k.Kernel) }

// TestEngineToleratesBufIgnoringKernel: the engine's slot recycling is
// invisible to a kernel that never reads Buf; its runs deep-equal those
// of its Buf-honouring twin, plain and clustered.
func TestEngineToleratesBufIgnoringKernel(t *testing.T) {
	for _, ar := range contractArchs {
		app, err := workloads.New("KMN")
		if err != nil {
			t.Fatal(err)
		}
		agent, err := core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: app.Partition(), Bypass: true, Prefetch: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []kernel.Kernel{app, agent} {
			cfg := engine.DefaultConfig(ar)
			want, err := engine.Run(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := engine.Run(cfg, ignoresBuf{k})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: the Buf-ignoring run differs from the Buf-honouring one", k.Name(), ar.Name)
			}
		}
	}
}

// TestTracesWellFormedUnderTransforms runs the gather-encoding
// validator over every CTA (or agent) of every app under every
// transform the engine runs: plain, swizzled, redirected and
// agent-clustered with each of TOT, BPS and PFH alone and together. PFH
// copies a successor task's gathers into the prefetch preamble and the
// agent's continuation appends tasks in place, so both must carry each
// gather's lane ops along with its head.
func TestTracesWellFormedUnderTransforms(t *testing.T) {
	for _, ar := range contractArchs {
		for _, name := range workloads.Names() {
			app, err := workloads.New(name)
			if err != nil {
				t.Fatal(err)
			}
			swz, err := swizzle.WrapFor("xor", app, ar)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := core.Redirect(app, ar.SMs, app.Partition())
			if err != nil {
				t.Fatal(err)
			}
			schemes := map[string]kernel.Kernel{"plain": app, "swizzle": swz, "redirect": rd}
			for _, sc := range agentSchemes {
				cfg := core.AgentConfig{Arch: ar, Indexing: app.Partition(), Bypass: sc.bypass, Prefetch: sc.prefetch}
				if sc.tot {
					cfg.ActiveAgents = app.OptAgents(ar.Gen)
				}
				if schemes[sc.name], err = core.NewAgent(app, cfg); err != nil {
					t.Fatal(err)
				}
			}
			for scheme, k := range schemes {
				reset(k)
				var buf [][]kernel.Op
				for u := 0; u < k.GridDim().Count(); u++ {
					for w := range buf {
						buf[w] = buf[w][:0]
					}
					work := kernel.Drain(k.Work(kernel.Launch{CTA: u, SM: u % ar.SMs, Slot: u / ar.SMs, Buf: buf}))
					if work.Skip {
						continue
					}
					for w, ops := range work.Warps {
						if err := wellFormed(ops); err != nil {
							t.Fatalf("%s %s on %s, CTA %d warp %d: %v", name, scheme, ar.Name, u, w, err)
						}
					}
					buf = work.Warps
				}
			}
		}
	}
}
