package engine

import (
	"context"

	"ctacluster/internal/kernel"
)

// RunRefQueue is Run on the reference event-queue discipline (the plain
// typed heap of event.go): the oracle the differential tests in
// queue_diff_test.go hold the calendar queue to.
func RunRefQueue(cfg Config, k kernel.Kernel) (*Result, error) {
	return run(context.Background(), cfg, k, true)
}
