package swizzle

// The determinism contract extended to the swizzle family: a swizzled
// kernel carries no state from one launch to the next, so running it
// twice must produce byte-identical simulation Results. Instrumented
// runs shrink the matrix the same way internal/eval's race sweeps do.

import (
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/workloads"
)

func identApps(t *testing.T) []string {
	t.Helper()
	if raceEnabled || testing.Short() {
		return []string{"MM"}
	}
	return []string{"MM", "SGM", "HST"}
}

func identVariants() []string {
	if raceEnabled || testing.Short() {
		return []string{"xor", "hilbert"}
	}
	return Names()
}

func TestSwizzledByteIdentity(t *testing.T) {
	ar := arch.TeslaK40()
	for _, name := range identApps(t) {
		app, err := workloads.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range identVariants() {
			sk, err := Wrap(v, app)
			if err != nil {
				t.Fatal(err)
			}
			first, err := engine.Run(engine.DefaultConfig(ar), sk)
			if err != nil {
				t.Fatalf("%s+%s: %v", name, v, err)
			}
			again, err := engine.Run(engine.DefaultConfig(ar), sk)
			if err != nil {
				t.Fatalf("%s+%s rerun: %v", name, v, err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Errorf("%s+%s: rerun differs (cycles %d vs %d)", name, v, first.Cycles, again.Cycles)
			}
		}
	}
}
