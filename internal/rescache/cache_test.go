package rescache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCacheHitMiss(t *testing.T) {
	c := New(1<<20, 16)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", []byte("alpha"))
	got, ok := c.Get("a")
	if !ok || !bytes.Equal(got, []byte("alpha")) {
		t.Fatalf("Get(a) = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheEntryBound(t *testing.T) {
	c := New(1<<20, 3)
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	// k0, k1 evicted in insertion (LRU) order.
	if _, ok := c.Get("k0"); ok {
		t.Fatal("k0 survived eviction")
	}
	if _, ok := c.Get("k4"); !ok {
		t.Fatal("k4 missing")
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

func TestCacheByteBound(t *testing.T) {
	c := New(100, 1000)
	c.Put("a", make([]byte, 60))
	c.Put("b", make([]byte, 50)) // 110 > 100: evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived byte-bound eviction")
	}
	if st := c.Stats(); st.Bytes != 50 {
		t.Fatalf("bytes = %d, want 50", st.Bytes)
	}
	// An oversized value is simply not cached.
	c.Put("huge", make([]byte, 200))
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized value cached")
	}
}

func TestCacheLRUTouchOrder(t *testing.T) {
	c := New(1<<20, 2)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Get("a")              // a becomes MRU
	c.Put("c", []byte("3")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived although LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted although MRU")
	}
}

func TestCacheOverwriteAccounting(t *testing.T) {
	c := New(1<<20, 16)
	c.Put("a", make([]byte, 10))
	c.Put("a", make([]byte, 30))
	if st := c.Stats(); st.Bytes != 30 || st.Entries != 1 {
		t.Fatalf("stats after overwrite = %+v", st)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := New(1<<16, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%100)
				if v, ok := c.Get(k); ok && len(v) != 8 {
					t.Errorf("corrupt value for %s: %d bytes", k, len(v))
				}
				c.Put(k, make([]byte, 8))
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > 64 || st.Bytes > 1<<16 {
		t.Fatalf("bounds violated: %+v", st)
	}
}

func TestSingleflightDedup(t *testing.T) {
	var g Group
	const n = 16
	gate := make(chan struct{})
	var calls int
	var mu sync.Mutex

	var wg sync.WaitGroup
	results := make([][]byte, n)
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			v, _, err := g.Do(context.Background(), "key", func(context.Context) ([]byte, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-gate
				return []byte("result"), nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
		}(i)
	}
	// Release the leader only once all n callers have entered Do (the
	// leader and joined counters are both bumped on entry), so exactly
	// one flight serves the whole burst deterministically.
	for i := 0; i < n; i++ {
		<-started
	}
	for {
		st := g.Stats()
		if st.Leaders+st.Joined == n {
			break
		}
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("fn executed %d times, want 1", calls)
	}
	for i, v := range results {
		if !bytes.Equal(v, []byte("result")) {
			t.Fatalf("caller %d got %q", i, v)
		}
	}
	st := g.Stats()
	if st.Leaders != 1 || st.Leaders+st.Joined != n || st.Inflight != 0 {
		t.Fatalf("flight stats = %+v", st)
	}
}

func TestSingleflightSequentialReruns(t *testing.T) {
	var g Group
	calls := 0
	for i := 0; i < 3; i++ {
		_, shared, err := g.Do(context.Background(), "k", func(context.Context) ([]byte, error) { calls++; return nil, nil })
		if err != nil || shared {
			t.Fatalf("run %d: shared=%v err=%v", i, shared, err)
		}
	}
	// Sequential calls each lead their own flight: singleflight is not a
	// cache.
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if st := g.Stats(); st.Leaders != 3 || st.Joined != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSingleflightErrorPropagation(t *testing.T) {
	var g Group
	wantErr := fmt.Errorf("boom")
	_, _, err := g.Do(context.Background(), "k", func(context.Context) ([]byte, error) { return nil, wantErr })
	if err != wantErr {
		t.Fatalf("err = %v", err)
	}
}

// TestSingleflightLeaderPanic: a panicking leader must not wedge its
// key. The leader and a concurrent joiner both get an error, the flight
// is released, and the next Do on the key runs fn again.
func TestSingleflightLeaderPanic(t *testing.T) {
	var g Group
	deadline := time.Now().Add(10 * time.Second)
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (stats %+v)", what, g.Stats())
			}
			runtime.Gosched()
		}
	}

	release := make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			<-release
			panic("boom")
		})
		errs <- err
	}()
	waitFor("the leader", func() bool { return g.Stats().Inflight == 1 })
	go func() {
		_, shared, err := g.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			t.Error("joiner ran fn while the leader was in flight")
			return nil, nil
		})
		if !shared {
			t.Error("second caller did not join the leader's flight")
		}
		errs <- err
	}()
	waitFor("the joiner", func() bool { return g.Stats().Joined == 1 })
	close(release)

	timeout := time.After(10 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("caller err = %v, want the leader's panic as an error", err)
			}
		case <-timeout:
			t.Fatal("a caller is still blocked: the panicking leader wedged its key")
		}
	}
	if st := g.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight = %d after the panic, want 0", st.Inflight)
	}
	v, shared, err := g.Do(context.Background(), "k", func(context.Context) ([]byte, error) { return []byte("ok"), nil })
	if err != nil || shared || string(v) != "ok" {
		t.Fatalf("Do after the panic = %q, shared=%v, err=%v; want a fresh run", v, shared, err)
	}
}

// TestSingleflightLeaderLeavesAlone: a leader whose context ends first
// fails alone. Its joiner keeps waiting and gets the flight's result,
// and the flight's context stays live while anyone still waits.
func TestSingleflightLeaderLeavesAlone(t *testing.T) {
	var g Group
	release := make(chan struct{})
	flightCtx := make(chan context.Context, 1)
	leaderCtx, leave := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(leaderCtx, "k", func(ctx context.Context) ([]byte, error) {
			flightCtx <- ctx
			<-release
			return []byte("ok"), ctx.Err()
		})
		leaderErr <- err
	}()
	fctx := <-flightCtx
	joined := make(chan []byte, 1)
	go func() {
		v, shared, err := g.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			t.Error("joiner ran fn while the leader's flight was in flight")
			return nil, nil
		})
		if !shared || err != nil {
			t.Errorf("joiner: shared=%v err=%v", shared, err)
		}
		joined <- v
	}()
	for g.Stats().Joined != 1 {
		runtime.Gosched()
	}
	leave()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if fctx.Err() != nil {
		t.Fatal("the leader leaving cancelled the flight its joiner still waits on")
	}
	close(release)
	if v := <-joined; string(v) != "ok" {
		t.Fatalf("joiner got %q, want the flight's result", v)
	}
}

// TestSingleflightLastWaiterCancelsFlight: once every waiter has left,
// the flight's context is cancelled and the key is released, so the
// next caller starts a fresh flight instead of joining a doomed one.
func TestSingleflightLastWaiterCancelsFlight(t *testing.T) {
	var g Group
	started := make(chan struct{})
	stopped := make(chan struct{})
	ctx, leave := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(fctx context.Context) ([]byte, error) {
			close(started)
			<-fctx.Done()
			close(stopped)
			return nil, fctx.Err()
		})
		errc <- err
	}()
	<-started
	leave()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("the flight kept running after its last waiter left")
	}
	v, shared, err := g.Do(context.Background(), "k", func(context.Context) ([]byte, error) { return []byte("fresh"), nil })
	if err != nil || shared || string(v) != "fresh" {
		t.Fatalf("Do after the flight was abandoned = %q, shared=%v, err=%v; want a fresh run", v, shared, err)
	}
}
