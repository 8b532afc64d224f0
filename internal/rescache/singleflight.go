package rescache

import (
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
	wg  sync.WaitGroup
	val []byte
	err error
}

// Group coalesces concurrent computations of the same key: the first
// caller (the leader) runs fn, every concurrent duplicate blocks and
// receives the leader's result. Unlike a cache, a Group holds a key
// only while the computation is in flight — pairing it with Cache gives
// the classic "thundering herd" protection.
type Group struct {
	mu      sync.Mutex
	m       map[string]*call
	leaders uint64
	joined  uint64
}

// Do returns the result of fn for key, executing fn exactly once per
// flight of concurrent callers. shared reports whether the caller
// joined an existing flight. A panic in fn is contained: the leader and
// every joiner get it back as an error, and the key is released so the
// next Do runs fn afresh.
func (g *Group) Do(key string, fn func() ([]byte, error)) (val []byte, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	if c, ok := g.m[key]; ok {
		g.joined++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, true, c.err
	}
	c := new(call)
	c.wg.Add(1)
	g.m[key] = c
	g.leaders++
	g.mu.Unlock()

	c.run(fn)
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.val, false, c.err
}

// run executes fn into c, converting a panic into c.err so no caller of
// the flight is left blocked on it.
func (c *call) run(fn func() ([]byte, error)) {
	defer func() {
		if r := recover(); r != nil {
			c.val, c.err = nil, fmt.Errorf("rescache: computation panicked: %v", r)
		}
	}()
	c.val, c.err = fn()
}

// Stats snapshots the dedup counters.
func (g *Group) Stats() FlightStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return FlightStats{Leaders: g.leaders, Joined: g.joined, Inflight: len(g.m)}
}
