package eval

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunnerEach pins the fan-out primitive's contract: the
// lowest-index error wins regardless of completion order, in-flight
// jobs never exceed the capacity, every index runs exactly once, and an
// empty batch is a no-op.
func TestRunnerEach(t *testing.T) {
	if err := NewRunner(4).Each(0, func(int) error { return errors.New("ran") }); err != nil {
		t.Fatalf("Each(0) = %v, want nil", err)
	}

	for _, capacity := range []int{0, 1, 3, 8} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			const n = 24
			limit := max(capacity, 1)
			var inFlight, peak atomic.Int32
			var runs [n]atomic.Int32
			err := NewRunner(capacity).Each(n, func(i int) error {
				cur := inFlight.Add(1)
				defer inFlight.Add(-1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				runs[i].Add(1)
				switch i {
				case 0:
					// Fails last: index 0 must still win.
					time.Sleep(20 * time.Millisecond)
					return errors.New("job 0")
				case 5, n - 1:
					return fmt.Errorf("job %d", i)
				}
				time.Sleep(time.Millisecond)
				return nil
			})
			if err == nil || err.Error() != "job 0" {
				t.Errorf("Each = %v, want the index-0 error", err)
			}
			if p := peak.Load(); p > int32(limit) {
				t.Errorf("peak in flight = %d, capacity %d", p, limit)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Errorf("fn(%d) ran %d times", i, c)
				}
			}
		})
	}
}
