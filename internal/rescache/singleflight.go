package rescache

import (
	"context"
	"fmt"
	"sync"
)

// FlightStats snapshots the dedup counters: Leaders counts computations
// actually executed, Joined counts requests that coalesced onto an
// in-flight leader instead of recomputing, Inflight is the current
// number of keys being computed. Leaders + cache hits + Joined equals
// total requests, and the acceptance test for the daemon asserts
// Leaders == 1 for a 16-way identical cold burst.
type FlightStats struct {
	Leaders  uint64 `json:"leaders"`
	Joined   uint64 `json:"joined"`
	Inflight int    `json:"inflight"`
}

type call struct {
	done   chan struct{} // closed once val and err are final
	val    []byte
	err    error
	cancel context.CancelFunc
	// waiters counts the callers still waiting on the flight; guarded
	// by Group.mu.
	waiters int
}

// Group coalesces concurrent computations of the same key: the first
// caller (the leader) starts fn, every concurrent duplicate joins it and
// receives the same result. Unlike a cache, a Group holds a key only
// while the computation is in flight — pairing it with Cache gives the
// classic "thundering herd" protection.
type Group struct {
	mu      sync.Mutex
	m       map[string]*call
	leaders uint64
	joined  uint64
}

// Do returns the result of fn for key, executing fn once per flight of
// concurrent callers. shared reports whether the caller joined an
// existing flight.
//
// No caller owns the flight. fn runs in its own goroutine under a
// context that is cancelled only when every caller waiting on the
// flight has left, and each caller waits until the flight finishes or
// its own ctx is done, returning ctx.Err() in the latter case. So a
// leader that gives up early fails alone, while its joiners keep
// waiting on their own deadlines. Once the last caller leaves, the key
// is released at once, so the next Do starts a fresh flight. A panic
// in fn is contained: every waiter gets it back as an error, and the
// key is released.
func (g *Group) Do(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) (val []byte, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	c, shared := g.m[key]
	if shared {
		g.joined++
	} else {
		fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		c = &call{done: make(chan struct{}), cancel: cancel}
		g.m[key] = c
		g.leaders++
		go g.run(fctx, key, c, fn)
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, shared, c.err
	case <-ctx.Done():
		g.mu.Lock()
		if c.waiters--; c.waiters == 0 {
			c.cancel()
			g.release(key, c)
		}
		g.mu.Unlock()
		return nil, shared, ctx.Err()
	}
}

// run executes fn into c, converting a panic into c.err, then releases
// the key before waking the waiters, so no caller sees a stale flight.
func (g *Group) run(ctx context.Context, key string, c *call, fn func(context.Context) ([]byte, error)) {
	defer func() {
		if r := recover(); r != nil {
			c.val, c.err = nil, fmt.Errorf("rescache: computation panicked: %v", r)
		}
		g.mu.Lock()
		g.release(key, c)
		g.mu.Unlock()
		c.cancel()
		close(c.done)
	}()
	c.val, c.err = fn(ctx)
}

// release drops key's flight if it is still c; g.mu must be held.
func (g *Group) release(key string, c *call) {
	if g.m[key] == c {
		delete(g.m, key)
	}
}

// Stats snapshots the dedup counters.
func (g *Group) Stats() FlightStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return FlightStats{Leaders: g.leaders, Joined: g.joined, Inflight: len(g.m)}
}
