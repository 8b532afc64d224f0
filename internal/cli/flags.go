package cli

// Shared flag registration. Before this file, each engine-running CLI
// registered its own copies of the shared flags with hand-duplicated
// help strings — several places to drift apart whenever a knob changed
// meaning. The Register* helpers below are the single
// source for those registrations (and for the fleet-era -cache-dir and
// -backends flags), and tools/docscheck resolves them transitively, so
// a flag registered here is cross-checked against README.md and
// EXPERIMENTS.md exactly as if it had been registered in the command's
// own main.go.

import (
	"flag"
	"fmt"
	"net/url"
	"strings"

	"ctacluster/internal/swizzle"
)

// RegisterParallelFlag registers -parallel, the sweep-level fan-out
// used by the CLIs that run many simulations (evaluate, ctacluster
// -all, ctacalib, ctad). Resolve the parsed value with Parallelism.
func RegisterParallelFlag() *int {
	return flag.Int("parallel", 0, "simulations in flight (0 = one per CPU, 1 = serial)")
}

// RegisterSwizzleFlag registers -swizzle, the CTA tile swizzle
// (internal/swizzle) applied to every kernel before any clustering
// transform. Unlike -parallel it is result-affecting — the remap
// changes cache statistics and cycle counts — so its value enters
// result-cache keys. Resolve the parsed value with Swizzle.
func RegisterSwizzleFlag() *string {
	return flag.String("swizzle", "", "CTA tile swizzle applied before any transform: "+strings.Join(swizzle.AllNames(), ", ")+" (empty = none)")
}

// RegisterChipletFlag registers -chiplet, the die count of the
// multi-chiplet architecture model (arch.WithChiplets): 0 — the default
// — is the monolithic Table 1 model, byte-identical to an engine
// without the chiplet code; >= 2 splits every selected platform into
// that many dies with derived interposer penalties (DESIGN.md §13).
// Result-affecting like -swizzle: the derived descriptor enters
// result-cache keys through its arch fields. Resolve the parsed value
// with Chiplet.
func RegisterChipletFlag() *int {
	return flag.Int("chiplet", 0, "split each platform into N interposer-linked dies (0 = monolithic, 2-8 = chiplet model)")
}

// RegisterCacheDirFlag registers -cache-dir, the persistent
// content-addressed result-cache tier (rescache.DiskCache) used by
// ctad: empty keeps the cache memory-only.
func RegisterCacheDirFlag() *string {
	return flag.String("cache-dir", "", "directory for the persistent result-cache tier (empty = memory only)")
}

// RegisterBackendsFlag registers -backends, the comma-separated ctad
// base-URL list a fleet coordinator fans out to.
func RegisterBackendsFlag() *string {
	return flag.String("backends", "", "comma-separated ctad base URLs to fan the sweep out to (e.g. http://host:8321,http://host:8322)")
}

// Backends resolves a -backends value: every comma-separated element
// must be a well-formed http(s) base URL; duplicates and empty elements
// are an error rather than a silent skip — a fleet that thinks it has
// three backends and has two is exactly the misconfiguration this
// catches. Trailing slashes are normalized away so equal backends
// compare equal.
func Backends(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, fmt.Errorf("missing -backends (comma-separated ctad base URLs)")
	}
	seen := make(map[string]bool)
	var out []string
	for _, raw := range strings.Split(csv, ",") {
		b := strings.TrimRight(strings.TrimSpace(raw), "/")
		if b == "" {
			return nil, fmt.Errorf("empty element in -backends %q", csv)
		}
		u, err := url.Parse(b)
		if err != nil {
			return nil, fmt.Errorf("bad backend URL %q: %v", b, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("bad backend URL %q: need http(s)://host[:port]", b)
		}
		if seen[b] {
			return nil, fmt.Errorf("duplicate backend %q", b)
		}
		seen[b] = true
		out = append(out, b)
	}
	return out, nil
}
