package calib

// The reference store's walls:
//
//   - both committed files re-encode to their exact committed bytes —
//     the canonical-form contract FuzzCalibReference holds for
//     arbitrary inputs, pinned here for the files that ship;
//   - apps.csv covers the full matrix and paper.csv every Table 1
//     platform's panels and Figure 2 points;
//   - apps.csv still matches what the simulator computes. Regenerate it
//     with `go test ./internal/calib -run TestAppsMatchSimulator
//     -update` after an intentional engine change, and review the diff
//     like any golden.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/cli"
	"ctacluster/internal/core"
	"ctacluster/internal/engine"
	"ctacluster/internal/eval"
	"ctacluster/internal/kernel"
	"ctacluster/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/apps.csv from the simulator")

func TestReferenceCSVsAreCanonical(t *testing.T) {
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		enc  []byte
	}{
		{"apps.csv", EncodeApps(ref.Apps)},
		{"paper.csv", EncodePaper(ref.Paper)},
	} {
		committed, err := os.ReadFile(filepath.Join("testdata", f.name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.enc, committed) {
			t.Errorf("%s: decode -> re-encode differs from the committed bytes", f.name)
		}
	}
}

func TestReferenceCoversFullMatrix(t *testing.T) {
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	platforms, err := cli.Platforms("")
	if err != nil {
		t.Fatal(err)
	}
	apps, err := cli.Apps("")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(platforms) * len(apps); len(ref.Apps) != want {
		t.Errorf("apps.csv has %d targets, want %d (%d platforms x %d apps)",
			len(ref.Apps), want, len(platforms), len(apps))
	}
	// Per platform: three Figure 2 points and both figures' panels.
	if want := len(platforms) * (3 + len(figureMetrics)*len(eval.Panels)); len(ref.Paper) != want {
		t.Errorf("paper.csv has %d rows, want %d", len(ref.Paper), want)
	}
	all := map[string]float64{"L1Latency": 1, "L2Latency": 1, "DRAMLatency": 1}
	for _, ar := range platforms {
		if pts, err := ref.figure2Points(ar.Name, all); err != nil || len(pts) != len(all) {
			t.Errorf("%s: Figure 2 points %+v, %v; want L1, L2 and DRAM", ar.Name, pts, err)
		}
		for _, fm := range figureMetrics {
			for _, p := range eval.Panels {
				if _, err := ref.PaperFor(fm.figure, ar.Name, p.Name); err != nil {
					t.Error(err)
				}
			}
		}
		for _, app := range apps {
			if _, err := ref.TargetFor(ar.Name, app.Name()); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestAppsMatchSimulator re-simulates apps.csv's BSL+CLU matrix and
// requires the committed file to match it byte for byte. Under the race
// detector it checks one platform's first three apps, row by row.
func TestAppsMatchSimulator(t *testing.T) {
	platforms, err := cli.Platforms("")
	if err != nil {
		t.Fatal(err)
	}
	apps, err := cli.Apps("")
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		platforms, apps = platforms[:1], apps[:3]
	}
	got, err := simMatrix(platforms, apps, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "apps.csv")
	if raceEnabled {
		ref, err := Load()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range got {
			if want, err := ref.TargetFor(g.Arch, g.App); err != nil || want != g {
				t.Errorf("simulated %+v, apps.csv has %+v (%v)", g, want, err)
			}
		}
		return
	}
	enc := EncodeApps(got)
	if *update {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, committed) {
		t.Errorf("apps.csv differs from the simulator; after an intentional engine change, rerun with -update and review the diff")
	}
}

// simMatrix simulates baseline and CLU for every (platform, app) cell,
// fanned out over parallelism workers, and returns the targets
// platform-major in input order, byte-identical at every worker count
// (each job owns its slot; all math happens after Each returns).
func simMatrix(platforms []*arch.Arch, apps []*workloads.App, parallelism int) ([]AppTarget, error) {
	// Job 2c runs cell c's baseline, job 2c+1 its clustering.
	runs := make([]*engine.Result, 2*len(platforms)*len(apps))
	err := eval.NewRunner(parallelism).Each(len(runs), func(j int) error {
		ar, app := platforms[j/2/len(apps)], apps[j/2%len(apps)]
		var k kernel.Kernel = app
		if j%2 == 1 {
			clu, err := core.NewAgent(app, core.AgentConfig{Arch: ar, Indexing: app.Partition()})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", app.Name(), ar.Name, err)
			}
			k = clu
		}
		r, err := engine.Run(engine.DefaultConfig(ar), k)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", app.Name(), ar.Name, err)
		}
		runs[j] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []AppTarget
	for c := 0; c < len(runs); c += 2 {
		base, clu := runs[c], runs[c+1]
		t := AppTarget{Arch: platforms[c/2/len(apps)].Name, App: apps[c/2%len(apps)].Name(), Cycles: base.Cycles}
		if clu.Cycles > 0 {
			t.Speedup = float64(base.Cycles) / float64(clu.Cycles)
		}
		out = append(out, t)
	}
	return out, nil
}
