package report

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/eval"
	"ctacluster/internal/workloads"
)

func TestTableWrite(t *testing.T) {
	tab := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tab.Add("xxx", "1")
	tab.Add("y", "22")
	var sb strings.Builder
	tab.Write(&sb)
	out := sb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "xxx") {
		t.Errorf("render missing content:\n%s", out)
	}
	if !strings.Contains(out, "---") {
		t.Error("missing separator")
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tab := &Table{Header: []string{"name", "note"}}
	tab.Add("a,b", `say "hi"`)
	var sb strings.Builder
	tab.WriteCSV(&sb)
	out := sb.String()
	if !strings.Contains(out, `"a,b"`) {
		t.Errorf("comma not quoted: %s", out)
	}
	if !strings.Contains(out, `"say ""hi"""`) {
		t.Errorf("quotes not escaped: %s", out)
	}
}

func TestTable1Content(t *testing.T) {
	tab := Table1(arch.All())
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 1 rows = %d", len(tab.Rows))
	}
	var sb strings.Builder
	tab.Write(&sb)
	for _, want := range []string{"GTX570", "TeslaK40", "GTX980", "GTX1080", "128B", "1536"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable2Content(t *testing.T) {
	tab := Table2(workloads.Table2())
	if len(tab.Rows) != 24 {
		t.Fatalf("Table 2 rows = %d", len(tab.Rows))
	}
	var sb strings.Builder
	tab.Write(&sb)
	out := sb.String()
	for _, want := range []string{"KMN", "matrixMul", "Y-P", "X-P", "algorithm", "streaming", "2180B"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestFigure2Table(t *testing.T) {
	ar := arch.TeslaK40()
	res, err := engine.Run(engine.DefaultConfig(ar), workloads.NewMicrobench(ar, false))
	if err != nil {
		t.Fatal(err)
	}
	tab := Figure2(ar, "default", res)
	if len(tab.Rows) == 0 || len(tab.Rows) > figure2Points {
		t.Errorf("Figure 2 rows = %d, want <= %d (sampled)", len(tab.Rows), figure2Points)
	}
	if !strings.Contains(tab.Title, "L1-L2 Read Trans=4") {
		t.Errorf("Kepler L1-L2 transactions per miss should be 4: %s", tab.Title)
	}
}

func TestFigure3Table(t *testing.T) {
	apps := []*workloads.App{}
	for _, n := range []string{"MM", "BS"} {
		a, _ := workloads.New(n)
		apps = append(apps, a)
	}
	tab := Figure3(apps, 32)
	if len(tab.Rows) != 3 { // 2 apps + AVG
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[2][0] != "AVG" {
		t.Error("missing AVG row")
	}
}

func TestFigure12And13Tables(t *testing.T) {
	ar := arch.TeslaK40()
	var results []*eval.AppResult
	for _, n := range []string{"NN", "ATX", "BS"} { // one app per panel
		app, _ := workloads.New(n)
		r, err := eval.EvaluateApp(ar, app, eval.Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	t12 := Figure12(ar, results)
	if len(t12) != 3 {
		t.Fatalf("Figure 12 panels = %d, want 3", len(t12))
	}
	for _, tab := range t12 {
		last := tab.Rows[len(tab.Rows)-1]
		if last[0] != "G-M" {
			t.Error("panel missing geometric-mean row")
		}
	}
	t13 := Figure13(ar, results)
	if len(t13) != 3 {
		t.Fatalf("Figure 13 panels = %d, want 3", len(t13))
	}
	var sb strings.Builder
	t13[0].Write(&sb)
	if !strings.Contains(sb.String(), "NN") {
		t.Error("algorithm panel should contain NN")
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil, 10) != "" {
		t.Error("empty input should render empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3}, 4)
	if len([]rune(s)) != 4 {
		t.Errorf("width = %d", len([]rune(s)))
	}
	r := []rune(s)
	if r[0] >= r[3] {
		t.Error("ascending series should render ascending blocks")
	}
	// Flat series: all minimum blocks, no panic.
	flat := Sparkline([]float64{5, 5, 5}, 3)
	for _, c := range flat {
		if c != '▁' {
			t.Error("flat series should render the lowest block")
		}
	}
}

// TestRenderingGoldens pins the Figure 2, Figure 3 and per-SM renderings
// byte-for-byte. The testdata files were captured from the standalone
// binaries these renderers replaced, so evaluate -figure and ctaprof
// stay cmp-identical to them. The Figure 2 goldens cover every Table 1
// platform plus the 2-die GTX570, whose curve runs through the
// interposer hop.
func TestRenderingGoldens(t *testing.T) {
	gtx980 := arch.GTX980()
	gtx570 := arch.GTX570()
	clustered := func(t *testing.T) *engine.Result {
		app, err := workloads.New("ATX")
		if err != nil {
			t.Fatal(err)
		}
		k, _, err := eval.Spec{Scheme: "CLU"}.Kernel(app, gtx570)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(engine.DefaultConfig(gtx570), k)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gtx570x2, err := arch.WithChiplets(gtx570, 2)
	if err != nil {
		t.Fatal(err)
	}
	type golden struct {
		golden string
		render func(t *testing.T, w io.Writer)
	}
	var cases []golden
	for _, ar := range []*arch.Arch{gtx570, arch.TeslaK40(), gtx980, arch.GTX1080(), gtx570x2} {
		cases = append(cases, golden{"figure2_" + ar.Name + ".txt", func(t *testing.T, w io.Writer) {
			def, stag, err := workloads.RunMicrobench(ar)
			if err != nil {
				t.Fatal(err)
			}
			Figure2Panel(w, ar, def, stag)
		}})
	}
	cases = append(cases, []golden{
		{"figure3_MM_KMN_ATX.txt", func(t *testing.T, w io.Writer) {
			var apps []*workloads.App
			for _, n := range []string{"MM", "KMN", "ATX"} {
				a, err := workloads.New(n)
				if err != nil {
					t.Fatal(err)
				}
				apps = append(apps, a)
			}
			Figure3Panel(w, apps)
		}},
		{"persm_ATX_GTX570_CLU.txt", func(t *testing.T, w io.Writer) {
			PerSMSummary(w, clustered(t))
		}},
		{"timeline_ATX_GTX570_CLU_sm0.txt", func(t *testing.T, w io.Writer) {
			SMTimeline(w, clustered(t), 0)
		}},
	}...)
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			tc.render(t, &got)
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("rendering differs from %s:\n--- got\n%s\n--- want\n%s", tc.golden, got.Bytes(), want)
			}
		})
	}
}
