package cli

import (
	"sort"
	"strings"
	"testing"

	"ctacluster/internal/workloads"
)

func TestPlatforms(t *testing.T) {
	tests := []struct {
		name    string
		arg     string
		want    int    // number of platforms, 0 = expect error
		errPart string // substring the error must carry
	}{
		{name: "empty selects all four", arg: "", want: 4},
		{name: "single known platform", arg: "TeslaK40", want: 1},
		{name: "observation platform", arg: "GTX750Ti", want: 1},
		{name: "unknown platform", arg: "H100", errPart: `unknown platform "H100"`},
		{name: "case insensitive", arg: "teslak40", want: 1},
		{name: "whitespace is not trimmed", arg: " TeslaK40", errPart: "unknown platform"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Platforms(tt.arg)
			if tt.errPart != "" {
				if err == nil {
					t.Fatalf("Platforms(%q) = %d platforms, want error", tt.arg, len(got))
				}
				if !strings.Contains(err.Error(), tt.errPart) {
					t.Fatalf("Platforms(%q) error = %q, want substring %q", tt.arg, err, tt.errPart)
				}
				return
			}
			if err != nil {
				t.Fatalf("Platforms(%q): %v", tt.arg, err)
			}
			if len(got) != tt.want {
				t.Fatalf("Platforms(%q) = %d platforms, want %d", tt.arg, len(got), tt.want)
			}
		})
	}
}

func TestPlatform(t *testing.T) {
	if _, err := Platform(""); err == nil || !strings.Contains(err.Error(), "missing -arch") {
		t.Fatalf("Platform(\"\") error = %v, want missing -arch", err)
	}
	a, err := Platform("GTX1080")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "GTX1080" {
		t.Fatalf("Platform(GTX1080).Name = %s", a.Name)
	}
	// Case-insensitive resolution returns the canonical product name.
	for _, alias := range []string{"teslak40", "TESLAK40", "TeslaK40"} {
		a, err := Platform(alias)
		if err != nil {
			t.Fatalf("Platform(%q): %v", alias, err)
		}
		if a.Name != "TeslaK40" {
			t.Fatalf("Platform(%q).Name = %s, want TeslaK40", alias, a.Name)
		}
	}
	if a, err := Platform("gtx750ti"); err != nil || a.Name != "GTX750Ti" {
		t.Fatalf("Platform(gtx750ti) = %v, %v; want the observation platform", a, err)
	}
	// The error must name the known platforms so the user can recover.
	_, err = Platform("nope")
	if err == nil || !strings.Contains(err.Error(), "TeslaK40") {
		t.Fatalf("unknown-platform error should list known names, got %v", err)
	}
}

func TestApps(t *testing.T) {
	tests := []struct {
		name    string
		arg     string
		want    []string // expected app names in order, nil = expect error
		errPart string
	}{
		{name: "empty selects Table 2", arg: "", want: nil}, // checked separately below
		{name: "single app", arg: "MM", want: []string{"MM"}},
		{name: "subset keeps order", arg: "KMN,MM,NN", want: []string{"KMN", "MM", "NN"}},
		{name: "spaces are trimmed", arg: " MM , KMN ", want: []string{"MM", "KMN"}},
		{name: "case insensitive", arg: "mm,kmn", want: []string{"MM", "KMN"}},
		{name: "Figure-3-only app, lower case", arg: "lud", want: []string{"LUD"}},
		{name: "unknown app", arg: "MM,NOPE", errPart: `unknown application "NOPE"`},
		{name: "empty element is an error not a skip", arg: "MM,,KMN", errPart: "missing application name"},
		{name: "trailing comma is an error", arg: "MM,", errPart: "missing application name"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Apps(tt.arg)
			if tt.errPart != "" {
				if err == nil {
					t.Fatalf("Apps(%q) succeeded, want error", tt.arg)
				}
				if !strings.Contains(err.Error(), tt.errPart) {
					t.Fatalf("Apps(%q) error = %q, want substring %q", tt.arg, err, tt.errPart)
				}
				return
			}
			if err != nil {
				t.Fatalf("Apps(%q): %v", tt.arg, err)
			}
			if tt.arg == "" {
				if len(got) != 24 {
					t.Fatalf("Apps(\"\") = %d apps, want the 24 of Table 2", len(got))
				}
				return
			}
			if len(got) != len(tt.want) {
				t.Fatalf("Apps(%q) = %d apps, want %d", tt.arg, len(got), len(tt.want))
			}
			for i, a := range got {
				if a.Name() != tt.want[i] {
					t.Fatalf("Apps(%q)[%d] = %s, want %s", tt.arg, i, a.Name(), tt.want[i])
				}
			}
		})
	}
}

func TestApp(t *testing.T) {
	if _, err := App(""); err == nil || !strings.Contains(err.Error(), "missing application name") {
		t.Fatalf("App(\"\") error = %v", err)
	}
	if _, err := App("BOGUS"); err == nil || !strings.Contains(err.Error(), `unknown application "BOGUS"`) {
		t.Fatalf("App(BOGUS) error = %v", err)
	}
	a, err := App("BFS")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "BFS" {
		t.Fatalf("App(BFS).Name = %s", a.Name())
	}
	// Lower-case abbreviations resolve to the canonical registration.
	for _, alias := range []string{"mm", "Mm", "MM"} {
		a, err := App(alias)
		if err != nil {
			t.Fatalf("App(%q): %v", alias, err)
		}
		if a.Name() != "MM" {
			t.Fatalf("App(%q).Name = %s, want MM", alias, a.Name())
		}
	}
}

func TestSwizzle(t *testing.T) {
	// Empty (and all-whitespace) means no swizzle, not an error.
	for _, empty := range []string{"", "  ", "\t"} {
		got, err := Swizzle(empty)
		if err != nil || got != "" {
			t.Fatalf("Swizzle(%q) = %q, %v, want \"\", nil", empty, got, err)
		}
	}
	// Case-insensitive resolution returns the canonical lower-case name.
	for _, alias := range []string{"xor", "XOR", "Xor"} {
		got, err := Swizzle(alias)
		if err != nil {
			t.Fatalf("Swizzle(%q): %v", alias, err)
		}
		if got != "xor" {
			t.Fatalf("Swizzle(%q) = %q, want xor", alias, got)
		}
	}
	// Unknown names list every variant in sorted order, matching the
	// unknown-app/-platform error shape.
	_, err := Swizzle("bogus")
	if err == nil {
		t.Fatal("Swizzle(bogus) succeeded")
	}
	const want = `unknown swizzle "bogus" (known: dieblock, groupcol, hilbert, identity, xor)`
	if err.Error() != want {
		t.Fatalf("Swizzle(bogus) error = %q, want %q", err, want)
	}
}

func TestParallelism(t *testing.T) {
	tests := []struct {
		arg     int
		want    int // -1 = any positive value (GOMAXPROCS)
		wantErr bool
	}{
		{arg: -1, wantErr: true},
		{arg: -8, wantErr: true},
		{arg: 0, want: -1},
		{arg: 1, want: 1},
		{arg: 8, want: 8},
	}
	for _, tt := range tests {
		got, err := Parallelism(tt.arg)
		if tt.wantErr {
			if err == nil {
				t.Fatalf("Parallelism(%d) = %d, want error", tt.arg, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Parallelism(%d): %v", tt.arg, err)
		}
		if tt.want == -1 {
			if got < 1 {
				t.Fatalf("Parallelism(0) = %d, want >= 1", got)
			}
			continue
		}
		if got != tt.want {
			t.Fatalf("Parallelism(%d) = %d, want %d", tt.arg, got, tt.want)
		}
	}
}

// TestUnknownNameErrorsListSortedOptions pins the satellite contract:
// unknown-platform and unknown-app errors enumerate every valid name in
// sorted order, so the user never has to guess.
func TestUnknownNameErrorsListSortedOptions(t *testing.T) {
	_, err := Platform("nope")
	if err == nil {
		t.Fatal("Platform(nope) succeeded")
	}
	const wantPlatforms = "GTX1080, GTX570, GTX750Ti, GTX980, TeslaK40"
	if !strings.Contains(err.Error(), wantPlatforms) {
		t.Fatalf("Platform error = %q, want sorted list %q", err, wantPlatforms)
	}

	_, err = App("nope")
	if err == nil {
		t.Fatal("App(nope) succeeded")
	}
	names := workloads.Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("workloads.Names() not sorted: %v", names)
	}
	if !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Fatalf("App error = %q, want the full sorted app list", err)
	}
	// Pin a stable prefix of the sorted order explicitly, so a registry
	// or sorting regression is caught even if both sides change together.
	if !strings.Contains(err.Error(), "known: 3CV, ATX, BC, BFS") {
		t.Fatalf("App error = %q, want it to start with the sorted prefix 3CV, ATX, BC, BFS", err)
	}
}
