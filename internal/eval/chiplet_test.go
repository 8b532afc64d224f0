package eval

import (
	"reflect"
	"strings"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/workloads"
)

// TestCompareChipletMM pins the shape and internal consistency of one
// chiplet comparison cell: the fixed four-mode order, the BSL
// normalization, the remote-counter invariants, and the best-mode
// bookkeeping agreeing with the cells.
func TestCompareChipletMM(t *testing.T) {
	ar, err := arch.WithChiplets(arch.TeslaK40(), 2)
	if err != nil {
		t.Fatal(err)
	}
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	c, err := compareChipletOne(ar, app, Options{})
	if err != nil {
		t.Fatal(err)
	}

	wantLabels := []string{"BSL", "CLU", "SWZ(dieblock)", "CLU+SWZ(dieblock)"}
	var labels []string
	for _, cell := range c.Cells {
		labels = append(labels, cell.Label)
	}
	if !reflect.DeepEqual(labels, wantLabels) {
		t.Fatalf("cell labels = %v, want %v", labels, wantLabels)
	}

	bsl := c.Cells[0]
	if bsl.Speedup != 1.0 {
		t.Errorf("BSL must normalize to speedup 1.0, got %v", bsl.Speedup)
	}
	best, bestCycles := c.Cells[0].Label, c.Cells[0].Cycles
	for _, cell := range c.Cells {
		if cell.Cycles <= 0 || cell.L2Txn == 0 {
			t.Errorf("%s: empty measurement: %+v", cell.Label, cell)
		}
		// Page interleaving makes remote traffic unavoidable on 2 dies;
		// a zero here means the chiplet model never engaged.
		if cell.RemoteTxn == 0 || cell.InterposerBytes == 0 {
			t.Errorf("%s: zero interposer counters on a 2-die descriptor: %+v", cell.Label, cell)
		}
		if cell.InterposerBytes != cell.RemoteTxn*uint64(ar.L2Line) {
			t.Errorf("%s: InterposerBytes %d != RemoteTxn %d * L2Line %d",
				cell.Label, cell.InterposerBytes, cell.RemoteTxn, ar.L2Line)
		}
		if cell.RemoteFrac < 0 || cell.RemoteFrac > 1 {
			t.Errorf("%s: RemoteFrac %v outside [0,1]", cell.Label, cell.RemoteFrac)
		}
		if cell.Cycles < bestCycles {
			best, bestCycles = cell.Label, cell.Cycles
		}
	}
	if c.Best != best {
		t.Errorf("Best = %s, want %s (the fewest-cycles cell, first wins ties)", c.Best, best)
	}
}

// TestCompareChipletRejections pins the two guard rails: a monolithic
// descriptor (the comparison would silently measure nothing) and a
// caller-supplied swizzle (the comparison applies dieblock itself).
func TestCompareChipletRejections(t *testing.T) {
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compareChipletOne(arch.TeslaK40(), app, Options{}); err == nil {
		t.Error("CompareChipletMatrix accepted a monolithic descriptor")
	} else if !strings.Contains(err.Error(), "monolithic") {
		t.Errorf("monolithic rejection = %q, want it to name the problem", err)
	}
	ar, err := arch.WithChiplets(arch.TeslaK40(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compareChipletOne(ar, app, Options{Swizzle: "xor"}); err == nil {
		t.Error("CompareChipletMatrix accepted Options.Swizzle")
	} else if !strings.Contains(err.Error(), "Swizzle") {
		t.Errorf("swizzle rejection = %q, want it to name Options.Swizzle", err)
	}
}

// TestCompareChipletRejectsQuick: the comparison runs no throttle
// sweep for Quick to skip, so a set Options.Quick would be silently
// ignored; it is rejected instead.
func TestCompareChipletRejectsQuick(t *testing.T) {
	ar, err := arch.WithChiplets(arch.TeslaK40(), 2)
	if err != nil {
		t.Fatal(err)
	}
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compareChipletOne(ar, app, Options{Quick: true}); err == nil {
		t.Fatal("CompareChipletMatrix accepted Options.Quick")
	} else if !strings.Contains(err.Error(), "Quick") {
		t.Errorf("quick rejection = %q, want it to name Options.Quick", err)
	}
}

// TestCompareChipletParallelDeterministic pins the byte-invisibility of
// the cell-internal fan-out: 1 worker and 8 workers must produce
// deep-equal comparisons.
func TestCompareChipletParallelDeterministic(t *testing.T) {
	ar, err := arch.WithChiplets(arch.GTX980(), 2)
	if err != nil {
		t.Fatal(err)
	}
	app, err := workloads.New("NW")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := compareChipletOne(ar, app, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := compareChipletOne(ar, app, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Error("CompareChipletMatrix differs between Parallelism 1 and 8")
	}
}

// compareChipletOne runs CompareChipletMatrix on the single (ar, app)
// cell.
func compareChipletOne(ar *arch.Arch, app *workloads.App, opt Options) (*ChipletComparison, error) {
	m, err := CompareChipletMatrix([]*arch.Arch{ar}, []*workloads.App{app}, opt, nil)
	if err != nil {
		return nil, err
	}
	return m[0], nil
}
