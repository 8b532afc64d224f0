package engine_test

// Differential goldens for the event queue: the two-level timing wheel
// (the default) must be indistinguishable from the reference typed heap
// (engine.RunRefQueue) in every observable — Results, profiler streams,
// error strings. The reference discipline is the pre-diet queue with the
// boxing removed, so this wall is the proof that the allocation diet
// changed cost and nothing else. The tier tests pin where pushes land:
// Table 2 never reaches the overflow heap on the paper's GPUs, and the
// chiplet BFS cells that do are held to the oracle too.

import (
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/kernel"
	"ctacluster/internal/prof"
	"ctacluster/internal/workloads"
)

// diffArches picks the platform sweep: all four evaluation platforms
// plus GTX750Ti, the only random CTA scheduler, normally; one
// unsectored-L1 (Kepler) and one sectored (Maxwell) under -short or
// -race.
func diffArches() []*arch.Arch {
	if raceEnabled || testing.Short() {
		return []*arch.Arch{arch.TeslaK40(), arch.GTX980()}
	}
	return append(arch.All(), arch.GTX750Ti())
}

// clustered returns app's agent-based clustering (CLU) on ar.
func clustered(t *testing.T, app *workloads.App, ar *arch.Arch) kernel.Kernel {
	t.Helper()
	k, err := core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: app.Partition()})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// diffApps is a subset of Table 2 spanning the locality categories.
func diffApps(t *testing.T) []*workloads.App {
	t.Helper()
	var apps []*workloads.App
	for _, n := range []string{"KMN", "MM", "ATX", "HST", "NW", "MON"} {
		a, err := workloads.New(n)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a)
	}
	return apps
}

// TestQueueMatchesRefHeap is the core differential golden: workloads ×
// platforms, the timing wheel deep-equal to the reference heap in
// every cell.
func TestQueueMatchesRefHeap(t *testing.T) {
	for _, ar := range diffArches() {
		for _, app := range diffApps(t) {
			cfg := engine.DefaultConfig(ar)
			want, err := engine.RunRefQueue(cfg, app)
			if err != nil {
				t.Fatalf("%s/%s ref: %v", app.Name(), ar.Name, err)
			}
			got, err := engine.Run(cfg, app)
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name(), ar.Name, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: timing wheel differs from reference heap (cycles %d vs %d, L2 read txns %d vs %d)",
					app.Name(), ar.Name, got.Cycles, want.Cycles,
					got.L2ReadTransactions(), want.L2ReadTransactions())
			}
		}
	}
}

// TestQueueProfStreamByteIdentical extends the queue contract to the
// profiler: the full event stream and the interval snapshots must be
// byte-identical across queue disciplines.
func TestQueueProfStreamByteIdentical(t *testing.T) {
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	ar := arch.TeslaK40()
	trace := func(ref bool) *prof.Trace {
		tr := prof.NewTrace(prof.TraceConfig{
			Kernel: app.Name(), Arch: ar.Name, SMs: ar.SMs,
			Events:         prof.MaskCTA | prof.MaskStall | prof.MaskMem | prof.MaskCache | prof.MaskL2,
			SampleInterval: 5000,
		})
		cfg := engine.DefaultConfig(ar)
		cfg.Profiler = tr
		run := engine.Run
		if ref {
			run = engine.RunRefQueue
		}
		if _, err := run(cfg, app); err != nil {
			t.Fatalf("ref=%v: %v", ref, err)
		}
		return tr
	}
	want, got := trace(true), trace(false)
	if !reflect.DeepEqual(want.Events(), got.Events()) {
		t.Errorf("event stream differs across queues (%d vs %d events)", len(want.Events()), len(got.Events()))
	}
	if !reflect.DeepEqual(want.Snapshots(), got.Snapshots()) {
		t.Errorf("snapshot stream differs across queues (%d vs %d snapshots)", len(want.Snapshots()), len(got.Snapshots()))
	}
}

// TestQueueErrorStringsMatch pins the third observable: an overrunning
// kernel must abort with exactly the same MaxCycles message under
// either queue.
func TestQueueErrorStringsMatch(t *testing.T) {
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig(arch.TeslaK40())
	cfg.MaxCycles = 5000 // MM needs far more; every run must abort
	_, want := engine.RunRefQueue(cfg, app)
	_, got := engine.Run(cfg, app)
	if want == nil || got == nil {
		t.Fatalf("expected the MaxCycles error from both queues, got ref=%v wheel=%v", want, got)
	}
	if got.Error() != want.Error() {
		t.Errorf("error differs across queues:\n got %q\nwant %q", got, want)
	}
}

// TestQueueOverflowMatchesRefHeap holds the overflow tier to the
// oracle: BFS on a 2-die GTX1080, plain (BSL) and clustered (CLU), is
// where interposer queueing pushes events past the ~65k-cycle coarse
// horizon. Each cell must actually reach the overflow heap — otherwise
// it would not cover the drain — and deep-equal the reference heap.
func TestQueueOverflowMatchesRefHeap(t *testing.T) {
	ar, err := arch.WithChiplets(arch.GTX1080(), 2)
	if err != nil {
		t.Fatal(err)
	}
	app, err := workloads.New("BFS")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []kernel.Kernel{app, clustered(t, app, ar)} {
		cfg := engine.DefaultConfig(ar)
		want, err := engine.RunRefQueue(cfg, k)
		if err != nil {
			t.Fatalf("%s ref: %v", k.Name(), err)
		}
		got, tiers, err := engine.RunQueueTiers(cfg, k)
		if err != nil {
			t.Fatalf("%s: %v", k.Name(), err)
		}
		t.Logf("%s on %s: %+v", k.Name(), ar.Name, tiers)
		if tiers.Overflow == 0 {
			t.Errorf("%s on %s: no overflow pushes (%+v) — the cell no longer covers the overflow drain", k.Name(), ar.Name, tiers)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s on %s: timing wheel differs from reference heap (cycles %d vs %d)",
				k.Name(), ar.Name, got.Cycles, want.Cycles)
		}
	}
}

// TestQueueTableTwoStaysOnWheel pins that no Table 2 app, plain (BSL)
// or clustered (CLU), pushes an event past the coarse horizon on
// TeslaK40 or GTX980: the overflow heap stays off the paper's path. It
// logs each platform's fine/coarse/overflow push shares.
func TestQueueTableTwoStaysOnWheel(t *testing.T) {
	apps := workloads.Table2()
	if raceEnabled || testing.Short() {
		apps = apps[:2]
	}
	for _, ar := range []*arch.Arch{arch.TeslaK40(), arch.GTX980()} {
		var sum engine.QueueTiers
		for _, app := range apps {
			for _, k := range []kernel.Kernel{app, clustered(t, app, ar)} {
				_, tiers, err := engine.RunQueueTiers(engine.DefaultConfig(ar), k)
				if err != nil {
					t.Fatalf("%s/%s: %v", k.Name(), ar.Name, err)
				}
				if tiers.Overflow != 0 {
					t.Errorf("%s/%s: %d overflow pushes, want 0 (%+v)", k.Name(), ar.Name, tiers.Overflow, tiers)
				}
				sum.Fine += tiers.Fine
				sum.Coarse += tiers.Coarse
				sum.Overflow += tiers.Overflow
			}
		}
		all := float64(sum.Fine + sum.Coarse + sum.Overflow)
		t.Logf("%s: %d pushes, fine %.1f%%, coarse %.1f%%, overflow %.1f%%", ar.Name, uint64(all),
			100*float64(sum.Fine)/all, 100*float64(sum.Coarse)/all, 100*float64(sum.Overflow)/all)
	}
}
