package eval

import (
	"context"
	"errors"
	"testing"
	"time"

	"ctacluster/internal/arch"
	"ctacluster/internal/workloads"
)

// TestSweepCancellation proves the satellite contract: a cancelled
// context makes an in-flight sweep return promptly with an error that
// unwraps to ctx.Err(), on both the serial and the parallel path.
func TestSweepCancellation(t *testing.T) {
	apps := workloads.Table2()
	for _, parallelism := range []int{1, 4} {
		parallelism := parallelism
		t.Run(map[int]string{1: "serial", 4: "parallel"}[parallelism], func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			opt := Options{Ctx: ctx, Parallelism: parallelism}

			errc := make(chan error, 1)
			go func() {
				_, err := EvaluateAll(arch.All(), apps, opt, nil)
				errc <- err
			}()
			// Let the sweep get airborne, then pull the plug and require
			// a prompt return — the full sweep takes minutes, so a
			// bounded wait distinguishes cancellation from completion.
			time.Sleep(50 * time.Millisecond)
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("sweep err = %v, want context.Canceled", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("sweep did not return within 30s of cancellation")
			}
		})
	}
}

// TestSweepAlreadyCancelled pins the fast path: no simulation starts
// under an already-dead context.
func TestSweepAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := EvaluateAll([]*arch.Arch{arch.TeslaK40()}, workloads.Table2(), Options{Ctx: ctx}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pre-cancelled sweep took %v", elapsed)
	}
}

// TestFrameworkCancellation covers the categorization sweep too.
func TestFrameworkCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EvaluateFramework(arch.TeslaK40(), workloads.Table2(), Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSweepNilContext pins that a zero Options still evaluates — the
// context default is Background, never cancelled.
func TestSweepNilContext(t *testing.T) {
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateAll([]*arch.Arch{arch.TeslaK40()}, []*workloads.App{app}, Options{Quick: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Results) != 1 || len(res[0].Results[0].Cells) == 0 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
}
