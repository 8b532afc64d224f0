package locality_test

// Trace-walk goldens: every Quant field of Quantify for the 40 Figure 3
// applications at 32-byte and 128-byte lines, and the inspector's
// permutation for four data-related applications. They pin what the
// line-footprint walk yields, op by op and line by line, so a change to
// how traces are read shows up as a diff. Regenerate deliberately with
// `go test ./internal/locality -run Golden -update` and review the diff.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ctacluster/internal/locality"
	"ctacluster/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the locality golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (%d vs %d bytes); rerun with -update and review the diff", path, len(got), len(want))
	}
}

// quantFields is Quant without its String method, so %+v prints every
// field (floats in shortest round-trip form).
type quantFields locality.Quant

// TestQuantifyGolden pins every Quant field for the Figure 3
// application set.
func TestQuantifyGolden(t *testing.T) {
	var b bytes.Buffer
	for _, app := range workloads.Figure3() {
		for _, lb := range []int{32, 128} {
			fmt.Fprintf(&b, "%s %+v\n", app.Name(), quantFields(locality.Quantify(app, lb)))
		}
	}
	checkGolden(t, "quantify_figure3.txt", b.Bytes())
}

// TestInspectorPermutationGolden pins the inspector's CTA order for
// data-related applications, whose gathers read their lane ops.
func TestInspectorPermutationGolden(t *testing.T) {
	var b bytes.Buffer
	for _, name := range []string{"BFS", "HST", "BTR", "NW"} {
		app, err := workloads.New(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %v\n", name, locality.InspectorPermutation(app, 32))
	}
	checkGolden(t, "inspector_permutation.txt", b.Bytes())
}
