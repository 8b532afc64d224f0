package eval

import (
	"fmt"
	"slices"
	"strings"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/kernel"
	"ctacluster/internal/swizzle"
	"ctacluster/internal/workloads"
)

// Spec names one kernel configuration: an application under an optional
// CTA tile swizzle, transformed by one scheme. It is the one place the
// evaluation, the daemon and the single-run CLIs build kernels, so a
// given Spec means the same kernel everywhere.
type Spec struct {
	// Swizzle is the CTA tile swizzle (internal/swizzle) applied
	// underneath the scheme; "" means none.
	Swizzle string
	// Scheme is BSL, RD or CLU, matched case-insensitively; "" means BSL.
	Scheme string
	// Agents (active agents per SM, 0 = all), Bypass and Prefetch
	// configure agent-based clustering and apply to CLU only.
	Agents   int
	Bypass   bool
	Prefetch bool
}

// SpecSchemes returns the scheme names Spec.Kernel accepts, sorted.
func SpecSchemes() []string { return []string{"BSL", "CLU", "RD"} }

// Kernel builds sp's kernel for app on ar and returns it with its
// canonical scheme label. The swizzle wraps the application first
// (WrapFor: the die-aware family derives its permutation from ar, which
// may be a chiplet descriptor); RD and CLU then regroup the swizzled
// rasterization along the app's partition direction.
func (sp Spec) Kernel(app *workloads.App, ar *arch.Arch) (kernel.Kernel, string, error) {
	scheme := strings.ToUpper(strings.TrimSpace(sp.Scheme))
	if scheme == "" {
		scheme = "BSL"
	}
	if !slices.Contains(SpecSchemes(), scheme) {
		return nil, "", fmt.Errorf("unknown scheme %q (known: %s)", sp.Scheme, strings.Join(SpecSchemes(), ", "))
	}
	if scheme != "CLU" && (sp.Agents != 0 || sp.Bypass || sp.Prefetch) {
		return nil, "", fmt.Errorf("agents/bypass/prefetch only apply to scheme CLU, got %s", scheme)
	}
	var k kernel.Kernel = app
	if sp.Swizzle != "" {
		sk, err := swizzle.WrapFor(sp.Swizzle, app, ar)
		if err != nil {
			return nil, "", err
		}
		k = sk
	}
	var err error
	switch scheme {
	case "RD":
		k, err = core.Redirect(k, ar.SMs, app.Partition())
	case "CLU":
		k, err = core.NewAgent(k, core.AgentConfig{
			Arch: ar, Indexing: app.Partition(),
			ActiveAgents: sp.Agents, Bypass: sp.Bypass, Prefetch: sp.Prefetch,
		})
	}
	if err != nil {
		return nil, "", err
	}
	return k, scheme, nil
}
