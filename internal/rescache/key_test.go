package rescache

import (
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/prof"
)

// TestConfigKeyGolden pins the key of a canonical configuration to a
// literal digest. A hash that shifts between processes or runs (map
// iteration, pointer addresses, unseeded randomness leaking into the
// key) would fail here immediately, and so would an accidental encoding
// change — which would silently orphan every cache entry in a deployed
// daemon.
func TestConfigKeyGolden(t *testing.T) {
	// Re-pinned when the arch encoder grew the three chiplet fields
	// (archFieldCount 24 → 27): an intentional, deploy-visible cache
	// flush, unlike the accidental drifts this test exists to catch.
	got := ConfigKey("MM/BSL", "", engine.DefaultConfig(arch.TeslaK40()))
	const want = "e098d0e32a67f00fca85fdfaed4539480a43856bc733acbf9cedada0660b7600"
	if got != want {
		t.Fatalf("ConfigKey golden drifted:\n got %s\nwant %s", got, want)
	}
}

// TestConfigKeyIdenticalAcrossAllocations proves no pointer identity
// leaks into the key: two separately-allocated descriptors of the same
// platform produce the same digest.
func TestConfigKeyIdenticalAcrossAllocations(t *testing.T) {
	a := ConfigKey("MM/BSL", "", engine.DefaultConfig(arch.TeslaK40()))
	b := ConfigKey("MM/BSL", "", engine.DefaultConfig(arch.TeslaK40()))
	if a != b {
		t.Fatalf("same logical config hashed differently: %s vs %s", a, b)
	}
}

// TestConfigKeyCoversEveryField perturbs each engine.Config field in
// turn and requires a distinct key. The struct's field count is pinned
// so a newly added field the encoder does not account for fails this
// test instead of silently aliasing cache entries.
func TestConfigKeyCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(engine.Config{}).NumField(); n != configFieldCount {
		t.Fatalf("engine.Config has %d fields but the key encoder covers %d — update Key.Config and configFieldCount", n, configFieldCount)
	}

	base := engine.DefaultConfig(arch.TeslaK40())
	mutate := map[string]func(*engine.Config){
		"Arch":           func(c *engine.Config) { c.Arch = arch.GTX980() },
		"Scheduler":      func(c *engine.Config) { c.Scheduler = arch.SchedStrictRR },
		"UseArchDefault": func(c *engine.Config) { c.UseArchDefault = !c.UseArchDefault },
		"L1Enabled":      func(c *engine.Config) { c.L1Enabled = !c.L1Enabled },
		"Seed":           func(c *engine.Config) { c.Seed = 12345 },
		"MaxCycles":      func(c *engine.Config) { c.MaxCycles = 999 },
		"Profiler":       func(c *engine.Config) { c.Profiler = prof.NewTrace(prof.TraceConfig{}) },
	}
	typ := reflect.TypeOf(engine.Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fn, ok := mutate[name]
		if !ok {
			t.Fatalf("no perturbation for engine.Config field %s — add one and extend Key.Config", name)
		}
		cfg := base
		fn(&cfg)
		if ConfigKey("MM/BSL", "", cfg) == ConfigKey("MM/BSL", "", base) {
			t.Errorf("perturbing %s did not change the key", name)
		}
	}
}

// TestArchKeyCoversEveryField pins arch.Arch the same way and checks a
// few representative field perturbations.
func TestArchKeyCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(arch.Arch{}).NumField(); n != archFieldCount {
		t.Fatalf("arch.Arch has %d fields but the key encoder covers %d — update Key.Arch and archFieldCount", n, archFieldCount)
	}
	base := *arch.TeslaK40()
	perturb := []func(*arch.Arch){
		func(a *arch.Arch) { a.Name = "x" },
		func(a *arch.Arch) { a.SMs++ },
		func(a *arch.Arch) { a.L1Size++ },
		func(a *arch.Arch) { a.L1Sectored = !a.L1Sectored },
		func(a *arch.Arch) { a.DRAMInterval++ },
		func(a *arch.Arch) { a.DefaultScheduler = arch.SchedStrictRR },
		func(a *arch.Arch) { a.StaticWarpSlotBinding = !a.StaticWarpSlotBinding },
		func(a *arch.Arch) { a.Chiplets = 2 },
		func(a *arch.Arch) { a.RemoteHopLatency = 65 },
		func(a *arch.Arch) { a.InterposerInterval = 4 },
	}
	baseKey := NewKey("t").Arch(&base).Sum()
	for i, fn := range perturb {
		a := base
		fn(&a)
		if NewKey("t").Arch(&a).Sum() == baseKey {
			t.Errorf("arch perturbation %d did not change the key", i)
		}
	}
}

// TestKeyNoConcatenationAliasing pins the framing: adjacent fields with
// shifted boundaries must not collide.
func TestKeyNoConcatenationAliasing(t *testing.T) {
	a := NewKey("t").Str("ab").Str("c").Sum()
	b := NewKey("t").Str("a").Str("bc").Sum()
	if a == b {
		t.Fatal("string framing allows concatenation aliasing")
	}
	c := NewKey("t").Strs([]string{"x"}).Strs(nil).Sum()
	d := NewKey("t").Strs(nil).Strs([]string{"x"}).Sum()
	if c == d {
		t.Fatal("list framing allows boundary aliasing")
	}
	if NewKey("t").Int(1).Sum() == NewKey("t").Uint(1).Sum() {
		t.Fatal("type tags do not separate Int and Uint")
	}
}

// TestSchemeSeparation: the same config under two kernel identities (two
// schemes of one app) must never alias.
func TestSchemeSeparation(t *testing.T) {
	cfg := engine.DefaultConfig(arch.TeslaK40())
	if ConfigKey("MM/BSL", "", cfg) == ConfigKey("MM/CLU", "", cfg) {
		t.Fatal("scheme does not separate keys")
	}
	if ConfigKey("MM/BSL", "", cfg) == ConfigKey("NN/BSL", "", cfg) {
		t.Fatal("app does not separate keys")
	}
	if ConfigKey("MM/BSL", "", cfg) == ConfigKey("MM/BSL", "xor", cfg) {
		t.Fatal("swizzle does not separate keys")
	}
	if ConfigKey("MM/BSL", "xor", cfg) == ConfigKey("MM/BSL", "hilbert", cfg) {
		t.Fatal("swizzle variants alias each other")
	}
}
