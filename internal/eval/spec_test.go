package eval

import (
	"strings"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/workloads"
)

// TestSpecKernel pins the scheme builder: the kernel each swizzle/scheme
// pair builds (by its transform-chain name), the canonical label, and
// the validation errors the daemon and CLIs surface.
func TestSpecKernel(t *testing.T) {
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	ar := arch.TeslaK40() // MM runs 2 agents per SM here
	for _, tc := range []struct {
		spec      Spec
		name      string // kernel Name(), or "" when an error is expected
		label     string
		wantError string
	}{
		{spec: Spec{}, name: "MM", label: "BSL"},
		{spec: Spec{Scheme: " bsl "}, name: "MM", label: "BSL"},
		{spec: Spec{Scheme: "rd"}, name: "MM+RD", label: "RD"},
		{spec: Spec{Scheme: "CLU"}, name: "MM+CLU", label: "CLU"},
		{spec: Spec{Scheme: "clu", Agents: 2}, name: "MM+CLU", label: "CLU"},
		{spec: Spec{Scheme: "CLU", Agents: 1}, name: "MM+CLU+TOT", label: "CLU"},
		{spec: Spec{Scheme: "CLU", Agents: 1, Bypass: true}, name: "MM+CLU+TOT+BPS", label: "CLU"},
		{spec: Spec{Scheme: "CLU", Prefetch: true}, name: "MM+CLU+PFH", label: "CLU"},
		{spec: Spec{Swizzle: "xor"}, name: "MM+SWZ(xor)", label: "BSL"},
		{spec: Spec{Swizzle: "xor", Scheme: "RD"}, name: "MM+SWZ(xor)+RD", label: "RD"},
		{spec: Spec{Swizzle: "hilbert", Scheme: "CLU", Agents: 1}, name: "MM+SWZ(hilbert)+CLU+TOT", label: "CLU"},
		{spec: Spec{Swizzle: "dieblock"}, name: "MM+SWZ(dieblock)", label: "BSL"},
		{spec: Spec{Scheme: "WAT"}, wantError: `unknown scheme "WAT" (known: BSL, CLU, RD)`},
		{spec: Spec{Scheme: "WAT", Agents: 2}, wantError: `unknown scheme "WAT"`},
		{spec: Spec{Agents: 2}, wantError: "agents/bypass/prefetch only apply to scheme CLU, got BSL"},
		{spec: Spec{Scheme: "RD", Bypass: true}, wantError: "only apply to scheme CLU, got RD"},
		{spec: Spec{Scheme: "bsl", Prefetch: true}, wantError: "only apply to scheme CLU, got BSL"},
		{spec: Spec{Swizzle: "bogus", Scheme: "CLU"}, wantError: `unknown swizzle "bogus"`},
	} {
		k, label, err := tc.spec.Kernel(app, ar)
		if tc.wantError != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantError) {
				t.Errorf("%+v: err = %v, want it to contain %q", tc.spec, err, tc.wantError)
			}
			continue
		}
		if err != nil {
			t.Errorf("%+v: %v", tc.spec, err)
			continue
		}
		if k.Name() != tc.name || label != tc.label {
			t.Errorf("%+v: kernel %q label %q, want %q %q", tc.spec, k.Name(), label, tc.name, tc.label)
		}
	}
}
