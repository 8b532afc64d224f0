// Package report renders the reproduction's tables and figure series as
// aligned text tables (and CSV), one renderer per paper artifact:
// Table 1, Table 2, Figure 2, Figure 3, Figure 12 and Figure 13, plus
// the per-SM placement view of a single run (placement.go).
package report

import (
	"fmt"
	"io"
	"strings"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/eval"
	"ctacluster/internal/locality"
	"ctacluster/internal/workloads"
)

// Table is a simple aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Write renders the table to w.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// WriteCSV renders the table as CSV.
func (t *Table) WriteCSV(w io.Writer) {
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
}

// Table1 renders the experiment-platform table (paper Table 1).
func Table1(platforms []*arch.Arch) *Table {
	t := &Table{
		Title: "Table 1: Experiment Platforms",
		Header: []string{"GPU", "Architecture", "CC", "SMs", "Warp slots", "CTA slots",
			"L1(KB)", "L1 line", "L2(KB)", "L2 line", "Regs(K)", "SMem(KB)"},
	}
	for _, a := range platforms {
		t.Add(a.Name, a.Gen.String(), a.CC,
			fmt.Sprint(a.SMs), fmt.Sprint(a.WarpSlots), fmt.Sprint(a.CTASlots),
			fmt.Sprint(a.L1Size/arch.KB), fmt.Sprintf("%dB", a.L1Line),
			fmt.Sprint(a.L2Size/arch.KB), fmt.Sprintf("%dB", a.L2Line),
			fmt.Sprint(a.Registers/1024), fmt.Sprint(a.SharedMem/arch.KB))
	}
	return t
}

// Table2 renders the benchmark-characteristics table (paper Table 2).
// The CTAs and Opt Agents columns are per generation (F/K/M/P).
func Table2(apps []*workloads.App) *Table {
	t := &Table{
		Title: "Table 2: Benchmark Characteristics",
		Header: []string{"abbr.", "Application", "Category", "WP", "CTAs(F/K/M/P)",
			"Registers(F/K/M/P)", "SMem", "Partition", "Opt Agents(F/K/M/P)"},
	}
	gens := arch.All()
	for _, app := range apps {
		var ctas, regs, opts []string
		for _, ar := range gens {
			occ := ar.OccupancyFor(app.WarpsPerCTA(), app.RegsPerThread(ar.Gen), app.SharedMemPerCTA())
			ctas = append(ctas, fmt.Sprint(occ.CTAsPerSM))
			regs = append(regs, fmt.Sprint(app.RegsPerThread(ar.Gen)))
			opts = append(opts, fmt.Sprint(app.OptAgents(ar.Gen)))
		}
		cat := app.Category().String()
		if app.WriteRelated() && app.Category() == locality.Data {
			cat += "&write"
		}
		t.Add(app.Name(), app.LongName(), cat,
			fmt.Sprint(app.WarpsPerCTA()),
			strings.Join(ctas, "/"), strings.Join(regs, "/"),
			fmt.Sprintf("%dB", app.SharedMemPerCTA()),
			locality.DirectionLabel(app.Partition()),
			strings.Join(opts, "/"))
	}
	return t
}

// figure2Points caps a Figure 2 table's rows; the sparkline under the
// tables echoes the full series.
const figure2Points = 24

// Figure2 renders one microbenchmark scenario: the access cycles of the
// CTAs scheduled on the SM holding CTA-0, sampled to at most
// figure2Points rows, with the profiler counters the paper annotates
// (L1 read transactions and L1->L2 read transactions).
func Figure2(ar *arch.Arch, scenario string, res *engine.Result) *Table {
	points, l1Reads, l1Misses := workloads.Figure2Series(res)
	t := &Table{
		Title: fmt.Sprintf("Figure 2 (%s, %s): L1 Read Trans=%d, L1-L2 Read Trans=%d, L1 Latency=~%d cycles, L2 Latency=~%d cycles",
			ar.Name, scenario, l1Reads, l1Misses*uint64(ar.L2TransactionsPerL1Miss()),
			ar.L1Latency, ar.L2Latency),
		Header: []string{"CTA id on SM_0", "access cycles"},
	}
	step := 1
	if len(points) > figure2Points {
		step = (len(points) + figure2Points - 1) / figure2Points
	}
	for i := 0; i < len(points); i += step {
		p := points[i]
		t.Add(fmt.Sprint(p.CTA), fmt.Sprintf("%.0f", p.Cycles))
	}
	return t
}

// Figure2Panel writes one platform's Figure 2 to w: the
// microbenchmark's launch shape, the default (temporal locality) and
// staggered (spatial locality) scenario tables, and a sparkline of each
// full series. It returns the two tables for CSV export.
func Figure2Panel(w io.Writer, ar *arch.Arch, def, stag *engine.Result) []*Table {
	mb := workloads.NewMicrobench(ar, false)
	fmt.Fprintf(w, "== %s (%s): %d CTAs = %d SMs x %d CTA slots x %d turnarounds ==\n",
		ar.Name, ar.Gen, mb.GridDim().Count(), ar.SMs, ar.CTASlots, mb.Turnarounds())
	tables := []*Table{
		Figure2(ar, "default: temporal locality", def),
		Figure2(ar, "staggered: spatial locality", stag),
	}
	for _, t := range tables {
		t.Write(w)
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  shape (default):   %s\n", figure2Shape(def))
	fmt.Fprintf(w, "  shape (staggered): %s\n\n", figure2Shape(stag))
	return tables
}

func figure2Shape(res *engine.Result) string {
	pts, _, _ := workloads.Figure2Series(res)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.Cycles
	}
	return Sparkline(vals, 64)
}

// figure3Line is the reuse-tracking granularity of Figure 3 in bytes.
const figure3Line = 32

// Figure3Panel writes Figure 3 for apps to w — the table and the
// footnote defining its columns — and returns the table for CSV export.
func Figure3Panel(w io.Writer, apps []*workloads.App) *Table {
	t := Figure3(apps, figure3Line)
	t.Write(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Inter_CTA + Intra_CTA split the reused requests; 'reuse fraction'")
	fmt.Fprintln(w, "is the share of all pre-L1 read requests that are reuses at all.")
	return t
}

// Figure3 renders the inter-/intra-CTA reuse quantification.
func Figure3(apps []*workloads.App, lineBytes int) *Table {
	t := &Table{
		Title:  "Figure 3: Percentage of data with inter-CTA and intra-CTA locality",
		Header: []string{"App", "Inter_CTA", "Intra_CTA", "Reuse fraction", "Category"},
	}
	var inter []float64
	for _, app := range apps {
		q := locality.Quantify(app, lineBytes)
		t.Add(app.Name(),
			fmt.Sprintf("%.0f%%", 100*q.InterPct()),
			fmt.Sprintf("%.0f%%", 100*q.IntraPct()),
			fmt.Sprintf("%.0f%%", 100*q.ReuseFraction()),
			app.Category().String())
		inter = append(inter, q.InterPct())
	}
	avg := 0.0
	for _, v := range inter {
		avg += v
	}
	if len(inter) > 0 {
		avg /= float64(len(inter))
	}
	t.Add("AVG", fmt.Sprintf("%.0f%%", 100*avg), "", "", "")
	return t
}

// Figure12 renders the speedup panels for one architecture: per app, the
// normalized speedup of each scheme plus achieved occupancy, with the
// per-panel geometric means the paper annotates.
func Figure12(ar *arch.Arch, results []*eval.AppResult) []*Table {
	return figurePanels(results, func(c eval.Cell) float64 { return c.Speedup }, func(p eval.Panel) *Table {
		return &Table{
			Title: fmt.Sprintf("Figure 12 (%s, %s): normalized speedup", ar.Name, p.Name),
			Header: []string{"App", "BSL", "RD", "CLU", "CLU+TOT", "CLU+TOT+BPS", "PFH+TOT",
				"AC_OCP(best)", "opt agents"},
		}
	}, func(r *eval.AppResult) []string {
		return []string{fmt.Sprintf("%.2f", r.Best().OccNorm), fmt.Sprint(r.Cells[eval.CLUTOT].Agents)}
	})
}

// Figure13 renders the cache panels for one architecture: normalized L2
// read transactions per scheme plus the best scheme's L1 hit rate.
func Figure13(ar *arch.Arch, results []*eval.AppResult) []*Table {
	return figurePanels(results, func(c eval.Cell) float64 { return c.L2Norm }, func(p eval.Panel) *Table {
		return &Table{
			Title: fmt.Sprintf("Figure 13 (%s, %s): normalized L2 transactions", ar.Name, p.Name),
			Header: []string{"App", "BSL", "RD", "CLU", "CLU+TOT", "CLU+TOT+BPS", "PFH+TOT",
				"HT_RTE(bsl)", "HT_RTE(best)"},
		}
	}, func(r *eval.AppResult) []string {
		return []string{fmt.Sprintf("%.2f", r.Cells[eval.BSL].L1Hit), fmt.Sprintf("%.2f", r.Best().L1Hit)}
	})
}

// figurePanels renders one table per non-empty eval.Panels entry: a row
// per app with metric under every scheme plus the extra columns, closed
// by the eval.PanelGeoMeans G-M row.
func figurePanels(results []*eval.AppResult, metric func(eval.Cell) float64,
	table func(eval.Panel) *Table, extra func(*eval.AppResult) []string) []*Table {
	gms := make([][]float64, len(eval.Schemes))
	for si, s := range eval.Schemes {
		gms[si] = eval.PanelGeoMeans(results, s, metric)
	}
	var tables []*Table
	for pi, p := range eval.Panels {
		t := table(p)
		for _, r := range results {
			if !p.Has(r.App) {
				continue
			}
			row := []string{r.App.Name()}
			for _, s := range eval.Schemes {
				row = append(row, fmt.Sprintf("%.2f", metric(r.Cells[s])))
			}
			t.Rows = append(t.Rows, append(row, extra(r)...))
		}
		if len(t.Rows) == 0 {
			continue
		}
		gm := []string{"G-M"}
		for si := range eval.Schemes {
			gm = append(gm, fmt.Sprintf("%.2f", gms[si][pi]))
		}
		t.Rows = append(t.Rows, append(gm, "", ""))
		tables = append(tables, t)
	}
	return tables
}

// Sparkline renders a compact unicode plot of a series (used by
// Figure2Panel to echo the Figure 2 shape).
func Sparkline(values []float64, width int) string {
	if len(values) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	if width <= 0 || width > len(values) {
		width = len(values)
	}
	step := float64(len(values)) / float64(width)
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		v := values[int(float64(i)*step)]
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}
