// Package calib scores the reproduction against the paper and fits the
// architecture latency tables to the paper's Figure 2 points.
//
// Paper mapping: testdata/paper.csv holds numbers transcribed by hand
// from the paper — each Table 1 GPU's Figure 2 L1/L2/DRAM latency
// points and its Figure 12/13 CLU+TOT panel geometric means — and no
// code path writes it. The fitting methodology follows "Analyzing and
// Improving Hardware Modeling of Accel-Sim" (arXiv 2401.10082): most
// simulator error comes from mis-modeled latencies, and
// microbenchmark-driven fitting, rather than hand calibration, both
// finds and documents them. DESIGN.md §14 describes the objective and
// where each paper.csv row comes from.
//
// Three pieces:
//
//   - The reference store (testdata/*.csv, embedded): paper.csv, plus
//     apps.csv — the simulator's own per-app BSL cycles and CLU
//     speedups, which ctabench's correctness checks read.
//     TestAppsMatchSimulator keeps apps.csv in step with the simulator
//     (`go test ./internal/calib -update` rewrites it); it is a drift
//     alarm, not an accuracy target. FuzzCalibReference pins the codec.
//   - A deterministic fitter (fit.go): coordinate descent over the
//     arch.LatencyParams table, minimizing the relative error between
//     the Figure 2 microbenchmark's latency plateaus (figure2.go) and
//     the paper's points. It returns a fitted arch.Arch copy and never
//     mutates the registry.
//   - A paper report (report.go): the evaluate sweep's CLU+TOT panel
//     geometric means scored as ln(measured/paper), Table 2 optimal
//     agent-count agreement and the Figure 2 point errors, rendered as
//     text or canonical JSON (BENCH_calib.json), byte-identical at
//     every -parallel setting.
package calib

import (
	"embed"
	"fmt"
)

//go:embed testdata/apps.csv testdata/paper.csv
var embedded embed.FS

// AppTarget is one per-app reference cell: the target baseline cycle
// count and the target clustering speedup (the CLU scheme, maximum
// allowable agents — the deterministic column that needs no throttle
// sweep) for one application on one platform.
type AppTarget struct {
	Arch    string
	App     string
	Cycles  int64
	Speedup float64
}

// PaperValue is one number transcribed from the paper.
type PaperValue struct {
	// Figure is 2 for a latency point, 12 for a panel speedup geometric
	// mean and 13 for a panel L2-transaction geometric mean.
	Figure int
	Arch   string
	// Metric is an arch.LatencyParams name on Figure 2 and an
	// eval.Panels name on Figures 12 and 13.
	Metric string
	Value  float64
	// Source says where in the paper the number comes from.
	Source string
}

// Reference is the full committed reference store.
type Reference struct {
	// Apps holds the per-app targets in (platform, app) order.
	Apps []AppTarget
	// Paper holds paper.csv's rows in file order.
	Paper []PaperValue
}

// TargetFor returns the per-app reference cell for (arch, app), or an
// error if the committed reference does not cover the cell.
func (r *Reference) TargetFor(arch, app string) (AppTarget, error) {
	for _, t := range r.Apps {
		if t.Arch == arch && t.App == app {
			return t, nil
		}
	}
	return AppTarget{}, fmt.Errorf("calib: no reference target for %s/%s", app, arch)
}

// PaperFor returns the paper's value for (figure, arch, metric).
func (r *Reference) PaperFor(figure int, arch, metric string) (float64, error) {
	for _, v := range r.Paper {
		if v.Figure == figure && v.Arch == arch && v.Metric == metric {
			return v.Value, nil
		}
	}
	return 0, fmt.Errorf("calib: paper.csv has no Figure %d %s value for %s", figure, metric, arch)
}

// Load returns the embedded committed reference store.
func Load() (*Reference, error) {
	apps, err := loadFile("apps.csv", DecodeApps)
	if err != nil {
		return nil, err
	}
	paper, err := loadFile("paper.csv", DecodePaper)
	if err != nil {
		return nil, err
	}
	return &Reference{Apps: apps, Paper: paper}, nil
}

// loadFile decodes one embedded reference file, which must have rows.
func loadFile[T any](name string, decode func([]byte) ([]T, error)) ([]T, error) {
	data, err := embedded.ReadFile("testdata/" + name)
	if err != nil {
		return nil, err
	}
	rows, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("calib: %s: %w", name, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("calib: %s has no rows", name)
	}
	return rows, nil
}
