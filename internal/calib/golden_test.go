package calib

// The byte-identity wall for the reference store and the report:
//
//   - the committed testdata/*.csv files must round-trip through the
//     codec to the exact committed bytes — the canonical-form contract
//     FuzzCalibReference holds for arbitrary inputs, pinned here for
//     the files that actually ship;
//   - the report (text and JSON) over a fixed sub-matrix must match the
//     committed goldens byte-for-byte, and must be byte-identical when
//     built serially and with -parallel fan-out — the same differential
//     discipline the engine itself is held to.
//
// Regenerate the report goldens with `go test ./internal/calib -run
// TestReportGolden -update` after an intentional engine change; the
// reference CSVs regenerate with `go run ./cmd/ctacalib seed`.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/cli"
)

var update = flag.Bool("update", false, "rewrite the report goldens")

func TestReferenceCSVsAreCanonical(t *testing.T) {
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ref.Curves {
		name := CurveFileName(c.Arch)
		committed, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(EncodeCurve(c), committed) {
			t.Errorf("%s: decode -> re-encode differs from the committed bytes", name)
		}
	}
	committed, err := os.ReadFile(filepath.Join("testdata", "apps.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeApps(ref.Apps), committed) {
		t.Error("apps.csv: decode -> re-encode differs from the committed bytes")
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
	for _, ar := range platforms {
		if _, err := ref.CurveFor(ar.Name); err != nil {
			t.Error(err)
		}
		// Each platform also commits its 2-die chiplet curve, the one
		// that makes RemoteHopLatency fittable.
		if _, err := ref.CurveFor(ar.Name + "@2die"); err != nil {
			t.Error(err)
		}
		for _, app := range apps {
			if _, err := ref.TargetFor(ar.Name, app.Name()); err != nil {
				t.Error(err)
			}
		}
	}
}

// goldenMatrix is the report sub-matrix the goldens pin: two platforms
// and three apps keep the three build variants inside unit-test time
// while still crossing platform and app behavior.
func goldenMatrix(t *testing.T) (*Reference, []string, []string) {
	t.Helper()
	ref, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	return ref, []string{"GTX570", "TeslaK40"}, []string{"MM", "SGM", "NW"}
}

func buildGoldenReport(t *testing.T, ref *Reference, archNames, appNames []string, opt ReportOptions) *Report {
	t.Helper()
	var arches []*arch.Arch
	for _, n := range archNames {
		a, err := cli.Platform(n)
		if err != nil {
			t.Fatal(err)
		}
		arches = append(arches, a)
	}
	apps, err := cli.Apps(strings.Join(appNames, ","))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildReport(arches, apps, ref, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestReportGolden(t *testing.T) {
	ref, archNames, appNames := goldenMatrix(t)
	serial := buildGoldenReport(t, ref, archNames, appNames, ReportOptions{Parallelism: 1})

	var text, jsonOut bytes.Buffer
	serial.WriteText(&text)
	if err := serial.WriteJSON(&jsonOut); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"report_golden.txt", text.Bytes()},
		{"report_golden.json", jsonOut.Bytes()},
	} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s: report differs from the committed golden (run with -update after an intentional engine change)\ngot:\n%s", g.file, g.got)
		}
	}

	// Serial ≡ parallel: the worker count must not move a single byte of
	// the rendered report.
	variants := []ReportOptions{
		{Parallelism: 4},
		{Parallelism: 3},
	}
	for _, opt := range variants {
		got := buildGoldenReport(t, ref, archNames, appNames, opt)
		var gotText, gotJSON bytes.Buffer
		got.WriteText(&gotText)
		if err := got.WriteJSON(&gotJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotText.Bytes(), text.Bytes()) || !bytes.Equal(gotJSON.Bytes(), jsonOut.Bytes()) {
			t.Errorf("report at %+v differs from the serial build", opt)
		}
	}
}
