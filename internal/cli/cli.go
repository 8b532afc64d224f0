// Package cli resolves the flag arguments shared by the command-line
// tools (cmd/evaluate, cmd/ctacluster, cmd/ctatrace): platform and
// application names and the evaluation parallelism. Centralizing the
// resolution guarantees every tool fails the same way — a clear message
// on stderr and a non-zero exit — on an unknown name instead of
// silently skipping it, and makes the parsing unit-testable.
//
// Paper mapping: the names it resolves are the paper's own — Table 1
// platform names and Table 2 application abbreviations; the resolution
// logic is reproduction infrastructure beyond the paper's scope.
package cli

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"ctacluster/internal/arch"
	"ctacluster/internal/swizzle"
	"ctacluster/internal/workloads"
)

// Platforms resolves the -arch flag for tools that sweep platforms: an
// empty name selects all four Table 1 evaluation platforms; anything
// else must name exactly one known platform.
func Platforms(name string) ([]*arch.Arch, error) {
	if name == "" {
		return arch.All(), nil
	}
	a, err := Platform(name)
	if err != nil {
		return nil, err
	}
	return []*arch.Arch{a}, nil
}

// Platform resolves a single-platform -arch flag, matching the product
// name case-insensitively ("teslak40" resolves TeslaK40). The empty
// string is rejected: tools with a single target default the flag value
// instead.
func Platform(name string) (*arch.Arch, error) {
	if name == "" {
		return nil, fmt.Errorf("missing -arch (one of %s)", strings.Join(platformNames(), ", "))
	}
	for _, a := range append(arch.All(), arch.GTX750Ti()) {
		if strings.EqualFold(a.Name, name) {
			return a, nil
		}
	}
	return nil, fmt.Errorf("unknown platform %q (known: %s)", name, strings.Join(platformNames(), ", "))
}

// Apps resolves the -apps flag: an empty value selects the full Table 2
// set; otherwise every comma-separated element must name a registered
// application. Empty elements ("MM,,NN") are an error rather than being
// skipped.
func Apps(csv string) ([]*workloads.App, error) {
	if csv == "" {
		return workloads.Table2(), nil
	}
	var apps []*workloads.App
	for _, n := range strings.Split(csv, ",") {
		a, err := App(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		apps = append(apps, a)
	}
	return apps, nil
}

// App resolves a single application name, matching the Table 2
// abbreviation case-insensitively ("mm" resolves MM).
func App(name string) (*workloads.App, error) {
	if name == "" {
		return nil, fmt.Errorf("missing application name (known: %s)", strings.Join(workloads.Names(), ", "))
	}
	for _, n := range workloads.Names() {
		if strings.EqualFold(n, name) {
			return workloads.New(n)
		}
	}
	return nil, fmt.Errorf("unknown application %q (known: %s)", name, strings.Join(workloads.Names(), ", "))
}

// Swizzle resolves the -swizzle flag: the empty value means no swizzle
// and passes through; anything else must name a registered swizzle
// variant, matched case-insensitively ("XOR" resolves xor) and returned
// in canonical form. Unknown names fail with the sorted known list,
// matching the unknown-app/-platform behavior above.
func Swizzle(name string) (string, error) {
	if strings.TrimSpace(name) == "" {
		return "", nil
	}
	for _, n := range swizzle.AllNames() {
		if strings.EqualFold(n, name) {
			return n, nil
		}
	}
	return "", fmt.Errorf("unknown swizzle %q (known: %s)", name, strings.Join(swizzle.AllNames(), ", "))
}

// Chiplet resolves the -chiplet flag: the number of dies to split the
// selected platform(s) into (arch.WithChiplets). 0 — the flag default —
// keeps the monolithic Table 1 model; values >= 2 derive the chiplet
// variant; range errors (negative, 1, beyond arch.MaxChiplets or the
// SM count) surface arch's own messages so every CLI fails identically.
func Chiplet(n int, platforms []*arch.Arch) ([]*arch.Arch, error) {
	if n == 0 {
		return platforms, nil
	}
	out := make([]*arch.Arch, len(platforms))
	for i, a := range platforms {
		c, err := arch.WithChiplets(a, n)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// ChipletOne is Chiplet for the single-platform CLIs (ctacluster,
// ctatrace, ctaprof): 0 passes the monolithic descriptor through
// unchanged, >= 2 derives its chiplet variant.
func ChipletOne(n int, a *arch.Arch) (*arch.Arch, error) {
	if n == 0 {
		return a, nil
	}
	return arch.WithChiplets(a, n)
}

// Parallelism resolves the -parallel flag: 0 means one worker per
// available CPU (GOMAXPROCS); explicit values pass through; negative
// values are an error.
func Parallelism(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("-parallel must be >= 0, got %d", n)
	}
	if n == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return n, nil
}

// platformNames lists every resolvable platform name, sorted, so the
// unknown-platform error reads as a stable reference list rather than
// whatever order the descriptors happen to be registered in.
func platformNames() []string {
	var out []string
	for _, a := range arch.All() {
		out = append(out, a.Name)
	}
	out = append(out, arch.GTX750Ti().Name)
	sort.Strings(out)
	return out
}
