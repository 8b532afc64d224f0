package engine_test

// The chiplet differential wall. Two contracts, two matrices:
//
//  1. Monolithic equivalence — arch.WithChiplets(ar, 0) must be
//     byte-identical to the untouched descriptor: deep-equal Results,
//     identical rescache keys, and a byte-identical profiler stream.
//     This pins the "0 dies = the seed engine" clause: the chiplet code
//     may not perturb the monolithic model by even one cycle.
//
//  2. Chiplet queue determinism — on a real chiplet descriptor the
//     timing wheel must reproduce the reference heap's Result and prof
//     stream exactly, for plain, die-swizzled and clustered kernels. The
//     interposer-link and slice state are order-sensitive like every
//     other memory structure; this matrix is where a divergence would
//     surface.

import (
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/prof"
	"ctacluster/internal/rescache"
	"ctacluster/internal/swizzle"
	"ctacluster/internal/workloads"
)

// chipletOf derives a chiplet variant or fails the test.
func chipletOf(t *testing.T, base *arch.Arch, dies int) *arch.Arch {
	t.Helper()
	a, err := arch.WithChiplets(base, dies)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestChipletZeroMonolithicEquivalence is the byte-identity golden:
// WithChiplets(ar, 0) against the untouched descriptor, comparing the
// full Result, the rescache key and a full-mask profiler stream.
func TestChipletZeroMonolithicEquivalence(t *testing.T) {
	apps := []string{"MM", "ATX"}
	arches := []*arch.Arch{arch.TeslaK40(), arch.GTX980()}
	if raceEnabled || testing.Short() {
		apps = apps[:1]
		arches = arches[:1]
	}
	for _, ar := range arches {
		zero := chipletOf(t, ar, 0)
		if *zero != *ar {
			t.Fatalf("%s: WithChiplets(_, 0) changed the descriptor", ar.Name)
		}
		for _, name := range apps {
			app, err := workloads.New(name)
			if err != nil {
				t.Fatal(err)
			}
			run := func(a *arch.Arch) (*engine.Result, *prof.Trace) {
				tr := prof.NewTrace(prof.TraceConfig{
					Kernel: name, Arch: a.Name, SMs: a.SMs,
					Events: prof.MaskAll, SampleInterval: 5000,
				})
				cfg := engine.DefaultConfig(a)
				cfg.Profiler = tr
				res, err := engine.Run(cfg, app)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, a.Name, err)
				}
				return res, tr
			}
			base, baseTr := run(ar)
			got, gotTr := run(zero)
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%s/%s: Chiplets=0 result differs from monolithic (cycles %d vs %d)",
					name, ar.Name, base.Cycles, got.Cycles)
			}
			if !reflect.DeepEqual(baseTr.Events(), gotTr.Events()) ||
				!reflect.DeepEqual(baseTr.Snapshots(), gotTr.Snapshots()) {
				t.Errorf("%s/%s: Chiplets=0 prof stream differs from monolithic", name, ar.Name)
			}
		}
		cfg := engine.DefaultConfig(ar)
		zcfg := engine.DefaultConfig(zero)
		if rescache.ConfigKey("x", "", cfg) != rescache.ConfigKey("x", "", zcfg) {
			t.Errorf("%s: Chiplets=0 rescache key differs from monolithic — cache entries would fragment", ar.Name)
		}
	}
}

// TestChipletQueueMatchesRefHeap is the determinism matrix on a real
// chiplet descriptor: plain, die-swizzled and agent-clustered kernels
// on the timing wheel must deep-equal the reference-heap oracle — the
// interposer counters included (they ride in Result.Mem).
func TestChipletQueueMatchesRefHeap(t *testing.T) {
	ar := chipletOf(t, arch.TeslaK40(), 2)
	apps := []string{"MM", "NW"}
	if raceEnabled || testing.Short() {
		apps = apps[:1]
	}
	for _, name := range apps {
		app, err := workloads.New(name)
		if err != nil {
			t.Fatal(err)
		}
		swz, err := swizzle.WrapFor("dieblock", app, ar)
		if err != nil {
			t.Fatal(err)
		}
		clu, err := core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: app.Partition()})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []kernel.Kernel{app, swz, clu} {
			cfg := engine.DefaultConfig(ar)
			want, err := engine.RunRefQueue(cfg, k)
			if err != nil {
				t.Fatalf("%s ref: %v", k.Name(), err)
			}
			if want.Mem.RemoteL2Transactions == 0 {
				t.Errorf("%s on %s: zero remote transactions — the chiplet model is not engaged", k.Name(), ar.Name)
			}
			got, err := engine.Run(cfg, k)
			if err != nil {
				t.Fatalf("%s: %v", k.Name(), err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s on %s: timing wheel differs from reference heap (cycles %d vs %d, remote txns %d vs %d)",
					k.Name(), ar.Name, got.Cycles, want.Cycles,
					got.Mem.RemoteL2Transactions, want.Mem.RemoteL2Transactions)
			}
		}
	}
}

// TestChipletQueueProfStreamByteIdentical extends the prof-stream
// contract to the chiplet path: the timing wheel's stream — Remote
// flags on EvL2Transaction events included — must match the reference
// heap's exactly on a 2-die descriptor.
func TestChipletQueueProfStreamByteIdentical(t *testing.T) {
	ar := chipletOf(t, arch.TeslaK40(), 2)
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	trace := func(run func(engine.Config, kernel.Kernel) (*engine.Result, error)) *prof.Trace {
		tr := prof.NewTrace(prof.TraceConfig{
			Kernel: app.Name(), Arch: ar.Name, SMs: ar.SMs,
			Events: prof.MaskAll, SampleInterval: 5000,
		})
		cfg := engine.DefaultConfig(ar)
		cfg.Profiler = tr
		if _, err := run(cfg, app); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	want, got := trace(engine.RunRefQueue), trace(engine.Run)
	var remotes int
	for _, e := range got.Events() {
		if e.Kind == prof.EvL2Transaction && e.Remote {
			remotes++
		}
	}
	if remotes == 0 {
		t.Error("no Remote-flagged L2 transaction events on a 2-die run — the observer plumbing is dead")
	}
	if !reflect.DeepEqual(want.Events(), got.Events()) {
		t.Errorf("chiplet event stream differs across queues (%d vs %d events)", len(want.Events()), len(got.Events()))
	}
	if !reflect.DeepEqual(want.Snapshots(), got.Snapshots()) {
		t.Error("chiplet snapshot stream differs across queues")
	}
}

// TestChipletDieblockChangesPlacementOnly sanity-checks the study's
// instrument: on a chiplet descriptor the dieblock swizzle must change
// the interposer traffic (it exists to move it) while conserving the
// work multiset — same CTA count, same total L2 read+write transaction
// volume shape is NOT required, but the grid and CTA records must line
// up one-to-one.
func TestChipletDieblockChangesPlacementOnly(t *testing.T) {
	ar := chipletOf(t, arch.TeslaK40(), 2)
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	swz, err := swizzle.WrapFor("dieblock", app, ar)
	if err != nil {
		t.Fatal(err)
	}
	base, err := engine.Run(engine.DefaultConfig(ar), app)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Run(engine.DefaultConfig(ar), swz)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.CTAs) != len(base.CTAs) {
		t.Fatalf("dieblock changed the CTA count: %d vs %d", len(got.CTAs), len(base.CTAs))
	}
	if got.Mem.InterposerBytes == base.Mem.InterposerBytes {
		t.Error("dieblock left interposer traffic exactly unchanged — the remap is not reaching placement")
	}
}
