package engine

import (
	"context"

	"ctacluster/internal/kernel"
)

// RunRefQueue is Run on the reference event-queue discipline (the plain
// typed heap of event.go): the oracle the differential tests in
// queue_diff_test.go hold the timing wheel to.
func RunRefQueue(cfg Config, k kernel.Kernel) (*Result, error) {
	return run(context.Background(), cfg, k, true)
}

// QueueTiers counts a run's event pushes by the timing-wheel tier they
// landed in: the fine level (current 256-cycle block), the coarse level
// (the next 255 blocks) and the overflow heap past that horizon.
type QueueTiers struct{ Fine, Coarse, Overflow uint64 }

// RunQueueTiers is Run that also reports the queue's per-tier pushes.
func RunQueueTiers(cfg Config, k kernel.Kernel) (*Result, QueueTiers, error) {
	s, err := simulate(context.Background(), cfg, k, false)
	if err != nil {
		return nil, QueueTiers{}, err
	}
	return s.result(), QueueTiers{Fine: s.q.pushFine, Coarse: s.q.pushCoarse, Overflow: s.q.pushFar}, nil
}
