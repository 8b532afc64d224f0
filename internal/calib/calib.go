// Package calib is the calibration and validation harness: it fits the
// architecture latency tables of internal/arch to the Figure 2
// microbenchmark reference curves, and scores the whole reproduction
// against the paper's per-app numbers so every engine change carries an
// accuracy delta next to its speed delta.
//
// Paper mapping: the reference curves are the paper's Figure 2 (per-CTA
// access cycles on the SM holding CTA-0, default and staggered
// scenarios, all four Table 1 platforms); the per-app targets are the
// Table 2 / Figure 12 evaluation matrix. The fitting methodology
// follows "Analyzing and Improving Hardware Modeling of Accel-Sim"
// (arXiv 2401.10082): most simulator error comes from mis-modeled
// latencies, and microbenchmark-driven fitting — rather than hand
// calibration — both finds and documents them. DESIGN.md §14 describes
// the objective, the weighting and the determinism argument.
//
// Three pieces:
//
//   - A reference store (testdata/*.csv, embedded): the committed
//     Figure 2 per-CTA cycle series per GPU — monolithic and 2-die
//     chiplet variants — annotated with the paper's reported latency
//     points, plus the per-app cycle/speedup targets. The goldens pin
//     the files byte-for-byte; FuzzCalibReference pins the codec.
//   - A deterministic fitter (fit.go): seeded coordinate descent over
//     the arch.LatencyParams table, minimizing the weighted RMS error
//     between simulated microbench curves and the reference. It emits
//     a fitted arch.Arch diff and never mutates the registry.
//   - A correlation report (report.go): per-app cycle and speedup
//     error vs the reference for the full 24-app x 4-GPU matrix,
//     rendered as text or canonical JSON (BENCH_calib.json), byte-
//     identical at every -parallel setting.
package calib

import (
	"embed"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed testdata/curves_*.csv testdata/apps.csv
var embedded embed.FS

// PaperPoint is one of the paper's reported latency numbers annotated
// onto a reference curve: the published Figure 2 plateau (or derived
// interposer hop) the committed calibration targets, in the canonical
// arch.LatencyParams order.
type PaperPoint struct {
	Name   string
	Cycles int
}

// CurvePoint is one x-axis sample of a Figure 2 reference series: the
// i-th CTA dispatched to the SM holding CTA-0 and its mean access
// latency in cycles.
type CurvePoint struct {
	CTA    int
	Cycles float64
}

// Curve is the committed Figure 2 reference for one architecture: both
// scenarios' per-CTA series plus the paper's reported latency points.
type Curve struct {
	Arch     string
	Chiplets int
	Paper    []PaperPoint
	// Default and Staggered are the two Listing-3 scenarios: temporal
	// inter-CTA locality and (DELAY-staggered) pure spatial locality.
	Default   []CurvePoint
	Staggered []CurvePoint
}

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

// Reference is the full committed reference store.
type Reference struct {
	// Curves holds one Figure 2 reference per architecture, sorted by
	// name, monolithic and 2-die chiplet variants alike.
	Curves []*Curve
	// Apps holds the per-app targets in (platform, app) seed order.
	Apps []AppTarget
}

// CurveFor returns the reference curve for an architecture name, or an
// error naming the known curves.
func (r *Reference) CurveFor(arch string) (*Curve, error) {
	for _, c := range r.Curves {
		if c.Arch == arch {
			return c, nil
		}
	}
	var known []string
	for _, c := range r.Curves {
		known = append(known, c.Arch)
	}
	return nil, fmt.Errorf("calib: no reference curve for %q (known: %s)", arch, strings.Join(known, ", "))
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

// Load returns the embedded committed reference store.
func Load() (*Reference, error) {
	return loadFS(embedded, "testdata")
}

// LoadDir loads a reference store from a directory on disk — the seed
// command's round-trip check and the goldens use it to compare against
// freshly written files.
func LoadDir(dir string) (*Reference, error) {
	return loadFS(os.DirFS(dir), ".")
}

func loadFS(fsys fs.FS, dir string) (*Reference, error) {
	ents, err := fs.ReadDir(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("calib: reading reference dir: %w", err)
	}
	ref := &Reference{}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "curves_") && strings.HasSuffix(name, ".csv"):
			data, err := fs.ReadFile(fsys, path(dir, name))
			if err != nil {
				return nil, err
			}
			c, err := DecodeCurve(data)
			if err != nil {
				return nil, fmt.Errorf("calib: %s: %w", name, err)
			}
			ref.Curves = append(ref.Curves, c)
		case name == "apps.csv":
			data, err := fs.ReadFile(fsys, path(dir, name))
			if err != nil {
				return nil, err
			}
			apps, err := DecodeApps(data)
			if err != nil {
				return nil, fmt.Errorf("calib: %s: %w", name, err)
			}
			ref.Apps = apps
		}
	}
	if len(ref.Curves) == 0 {
		return nil, fmt.Errorf("calib: no curves_*.csv reference files in %s", dir)
	}
	if len(ref.Apps) == 0 {
		return nil, fmt.Errorf("calib: no apps.csv reference file in %s", dir)
	}
	sort.Slice(ref.Curves, func(i, j int) bool { return ref.Curves[i].Arch < ref.Curves[j].Arch })
	return ref, nil
}

func path(dir, name string) string {
	if dir == "." {
		return name
	}
	return dir + "/" + name
}

// WriteDir writes the reference store into dir in the canonical file
// layout (one curves_<arch>.csv per curve plus apps.csv), creating the
// directory if needed. Existing files are overwritten: this is the
// `ctacalib seed` regeneration path, and the goldens pin the result.
func WriteDir(dir string, ref *Reference) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, c := range ref.Curves {
		if err := os.WriteFile(filepath.Join(dir, CurveFileName(c.Arch)), EncodeCurve(c), 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, "apps.csv"), EncodeApps(ref.Apps), 0o644)
}

// CurveFileName maps an architecture name onto its reference file name.
func CurveFileName(arch string) string { return "curves_" + arch + ".csv" }
