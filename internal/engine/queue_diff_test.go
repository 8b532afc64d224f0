package engine_test

// Differential goldens for the event queue: the bucketed calendar queue
// (the default) must be indistinguishable from the reference typed heap
// (engine.RunRefQueue) in every observable — Results, profiler streams,
// error strings. The reference discipline is the pre-diet queue with the
// boxing removed, so this wall is the proof that the allocation diet
// changed cost and nothing else.

import (
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/prof"
	"ctacluster/internal/workloads"
)

// diffArches picks the platform sweep: all four evaluation platforms
// normally; one unsectored-L1 (Kepler) and one sectored (Maxwell)
// under -short or -race.
func diffArches() []*arch.Arch {
	if raceEnabled || testing.Short() {
		return []*arch.Arch{arch.TeslaK40(), arch.GTX980()}
	}
	return arch.All()
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
// platforms, the calendar queue deep-equal to the reference heap in
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
				t.Errorf("%s/%s: calendar queue differs from reference heap (cycles %d vs %d, L2 read txns %d vs %d)",
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
		t.Fatalf("expected the MaxCycles error from both queues, got ref=%v calendar=%v", want, got)
	}
	if got.Error() != want.Error() {
		t.Errorf("error differs across queues:\n got %q\nwant %q", got, want)
	}
}
