package server_test

// End-to-end daemon tests: a real HTTP server on an ephemeral port,
// driven over plain HTTP. These pin the PR's acceptance criteria:
// cold and warm responses are byte-identical, an identical concurrent
// burst costs exactly one underlying simulation (singleflight), and a
// cancelled or expired request frees its worker with the engine
// stopping early. CI runs this file under -race (the `server` job).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ctacluster/internal/api"
	"ctacluster/internal/arch"
	"ctacluster/internal/eval"
	"ctacluster/internal/locality"
	"ctacluster/internal/prof"
	"ctacluster/internal/report"
	"ctacluster/internal/server"
	"ctacluster/internal/swizzle"
	"ctacluster/internal/workloads"
)

// daemon is one test daemon's base URL.
type daemon string

// newDaemon starts a daemon on an ephemeral port.
func newDaemon(t *testing.T, cfg server.Config) daemon {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return daemon(ts.URL)
}

// do sends one request to d, a GET when body is nil and a JSON POST
// otherwise, and returns the raw response body and its X-Ctad-Cache
// disposition. A non-200 answer becomes an error carrying the daemon's
// message and the HTTP status.
func (d daemon) do(ctx context.Context, path string, body any) ([]byte, string, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, "", err
		}
		method, rd = http.MethodPost, bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, string(d)+path, rd)
	if err != nil {
		return nil, "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	disposition := resp.Header.Get("X-Ctad-Cache")
	if resp.StatusCode != http.StatusOK {
		// A body that is not the error schema leaves e.Error empty; the
		// status still reports the failure.
		var e api.ErrorResponse
		_ = json.Unmarshal(out, &e)
		return nil, disposition, fmt.Errorf("%s %s: %s (HTTP %d)", method, path, e.Error, resp.StatusCode)
	}
	return out, disposition, nil
}

// call is d.do decoding the response body as a T.
func call[T any](ctx context.Context, d daemon, path string, body any) (*T, error) {
	raw, _, err := d.do(ctx, path, body)
	if err != nil {
		return nil, err
	}
	var out T
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &out, nil
}

func TestColdWarmByteIdentical(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 2})
	ctx := context.Background()
	req := api.SimulateRequest{App: "MM", Arch: "TeslaK40"}

	cold, disp, err := c.do(ctx, "/v1/simulate", req)
	if err != nil {
		t.Fatal(err)
	}
	if disp != "miss" {
		t.Fatalf("cold disposition = %q, want miss", disp)
	}
	warm, disp, err := c.do(ctx, "/v1/simulate", req)
	if err != nil {
		t.Fatal(err)
	}
	if disp != "hit" {
		t.Fatalf("warm disposition = %q, want hit", disp)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cold and warm bodies differ:\ncold: %s\nwarm: %s", cold, warm)
	}

	m, err := call[api.MetricsResponse](ctx, c, "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 || m.Queue.Executions != 1 {
		t.Fatalf("metrics after cold+warm = cache %+v queue %+v", m.Cache, m.Queue)
	}

	// Case-insensitive names resolve to the same cache entry.
	aliased, disp, err := c.do(ctx, "/v1/simulate", api.SimulateRequest{App: "mm", Arch: "teslak40"})
	if err != nil {
		t.Fatal(err)
	}
	if disp != "hit" || !bytes.Equal(cold, aliased) {
		t.Fatalf("aliased request missed the cache (disposition %q)", disp)
	}
}

// TestConcurrentDedup is the 16-way acceptance criterion: identical
// concurrent cold requests perform exactly one underlying engine run,
// observed through the executions and singleflight counters.
func TestConcurrentDedup(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 4})
	ctx := context.Background()
	req := api.SimulateRequest{App: "NN", Arch: "GTX980"}

	const n = 16
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], _, errs[i] = c.do(ctx, "/v1/simulate", req)
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}

	m, err := call[api.MetricsResponse](ctx, c, "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Queue.Executions != 1 {
		t.Fatalf("16 identical concurrent requests ran %d simulations, want exactly 1 (singleflight %+v, cache %+v)",
			m.Queue.Executions, m.Singleflight, m.Cache)
	}
	if m.Singleflight.Leaders != 1 {
		t.Fatalf("singleflight leaders = %d, want 1 (%+v)", m.Singleflight.Leaders, m.Singleflight)
	}
	// Every non-leader either joined the flight or hit the cache after
	// the leader populated it.
	if got := m.Singleflight.Joined + m.Cache.Hits; got != n-1 {
		t.Fatalf("joined (%d) + cache hits (%d) = %d, want %d",
			m.Singleflight.Joined, m.Cache.Hits, got, n-1)
	}
}

// waitForIdle polls /metrics until no worker is active.
func waitForIdle(t *testing.T, c daemon, within time.Duration) *api.MetricsResponse {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		m, err := call[api.MetricsResponse](context.Background(), c, "/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.Queue.Active == 0 && m.Queue.Waiting == 0 {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers still busy after %v: %+v", within, m.Queue)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSweepClientDisconnectFreesWorker is the cancellation acceptance
// criterion: a sweep whose client goes away stops the engine early and
// frees its worker.
func TestSweepClientDisconnectFreesWorker(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 1, Parallelism: 2})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		// A full (non-quick) all-apps sweep on one platform: minutes of
		// simulation if left alone.
		_, err := call[api.SweepResponse](ctx, c, "/v1/sweep", api.SweepRequest{Arch: "TeslaK40"})
		errc <- err
	}()

	// Let the sweep occupy the worker, then disconnect the client.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := call[api.MetricsResponse](context.Background(), c, "/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.Queue.Active == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never occupied the worker")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled sweep returned success")
	}

	m := waitForIdle(t, c, 30*time.Second)
	if m.Queue.Cancelled == 0 {
		t.Fatalf("cancelled counter = 0 after disconnect: %+v", m.Queue)
	}
	if m.Queue.Executions != 1 {
		t.Fatalf("executions = %d, want 1", m.Queue.Executions)
	}

	// The daemon stays serviceable: the freed worker takes new work.
	if _, err := call[api.SimulateResponse](context.Background(), c, "/v1/simulate", api.SimulateRequest{App: "MM", Arch: "TeslaK40"}); err != nil {
		t.Fatalf("post-cancellation request failed: %v", err)
	}
}

// TestSweepDeadlineExpires covers the server-side deadline: the request
// fails with 504 and the worker frees promptly.
func TestSweepDeadlineExpires(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 1, Parallelism: 2})
	_, err := call[api.SweepResponse](context.Background(), c, "/v1/sweep", api.SweepRequest{Arch: "GTX1080", TimeoutMS: 100})
	if err == nil {
		t.Fatal("expired sweep returned success")
	}
	if !strings.Contains(err.Error(), "504") {
		t.Fatalf("err = %v, want HTTP 504", err)
	}
	m := waitForIdle(t, c, 30*time.Second)
	if m.Queue.Cancelled == 0 {
		t.Fatalf("cancelled counter = 0 after deadline: %+v", m.Queue)
	}
}

// TestLeaderDeadlineSparesJoiner: a singleflight leader that gives up
// fails alone. Its joiner still gets a 200 whose bytes equal a cold
// run's. A blocking sweep holds the only worker, so every flight stays
// queued until the test frees it, and each step waits for the last:
//   - while the worker is held, a request whose timeout_ms expires
//     answers 504;
//   - the leader leaves only after the joiner has joined, by
//     disconnecting, which takes the same last-waiter path in
//     rescache.Group.Do as an expired deadline;
//   - the worker is freed only after the daemon has logged the leader's
//     request as done.
func TestLeaderDeadlineSparesJoiner(t *testing.T) {
	// One log line per finished request; the test logs four, and the
	// spare room keeps a handler from ever blocking on the send.
	served := make(chan string, 8)
	c := newDaemon(t, server.Config{Workers: 1, Parallelism: 2, Logf: func(format string, args ...any) {
		served <- fmt.Sprintf(format, args...)
	}})
	waitMetrics := func(what string, cond func(*api.MetricsResponse) bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			m, err := call[api.MetricsResponse](context.Background(), c, "/metrics", nil)
			if err != nil {
				t.Fatal(err)
			}
			if cond(m) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v %+v", what, m.Queue, m.Singleflight)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitServed := func(what string) {
		t.Helper()
		select {
		case line := <-served:
			t.Logf("%s: %s", what, line)
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out waiting for the daemon to finish %s", what)
		}
	}

	blockCtx, unblock := context.WithCancel(context.Background())
	defer unblock()
	go c.do(blockCtx, "/v1/sweep", api.SweepRequest{Arch: "TeslaK40"})
	waitMetrics("the blocking sweep", func(m *api.MetricsResponse) bool { return m.Queue.Active == 1 })

	_, _, err := c.do(context.Background(), "/v1/simulate", api.SimulateRequest{App: "NN", Arch: "TeslaK40", TimeoutMS: 1})
	if err == nil || !strings.Contains(err.Error(), "504") {
		t.Fatalf("expired request: err = %v, want HTTP 504", err)
	}
	waitServed("the expired request")

	req := api.SimulateRequest{App: "MM", Arch: "TeslaK40"}
	type reply struct {
		body []byte
		disp string
		err  error
	}
	ask := func(ctx context.Context) chan reply {
		out := make(chan reply, 1)
		go func() {
			body, disp, err := c.do(ctx, "/v1/simulate", req)
			out <- reply{body, disp, err}
		}()
		return out
	}
	leaderCtx, leave := context.WithCancel(context.Background())
	defer leave()
	leader := ask(leaderCtx)
	// Two flights: the blocking sweep's and the leader's.
	waitMetrics("the leader's flight", func(m *api.MetricsResponse) bool { return m.Singleflight.Inflight == 2 })
	joiner := ask(context.Background())
	waitMetrics("the joiner", func(m *api.MetricsResponse) bool { return m.Singleflight.Joined == 1 })

	leave()
	if got := <-leader; !errors.Is(got.err, context.Canceled) {
		t.Fatalf("leader: err = %v, want its own cancellation", got.err)
	}
	waitServed("the leader's request")
	m, err := call[api.MetricsResponse](context.Background(), c, "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Singleflight.Inflight != 2 {
		t.Fatalf("the leader's departure ended the joiner's flight: %+v", m.Singleflight)
	}
	unblock()
	got := <-joiner
	if got.err != nil || got.disp != "dedup" {
		t.Fatalf("joiner: disposition %q, err %v; want a 200 from the shared flight", got.disp, got.err)
	}
	cold, _, err := newDaemon(t, server.Config{Workers: 1}).do(context.Background(), "/v1/simulate", req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.body, cold) {
		t.Fatalf("joiner's body differs from a cold run:\njoiner: %s\ncold:   %s", got.body, cold)
	}
}

// TestOptimizeDeadlineExpires: the framework's probe simulations run
// under the request deadline, so an expired /v1/optimize answers 504
// and counts as cancelled.
func TestOptimizeDeadlineExpires(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 1})
	_, err := call[api.OptimizeResponse](context.Background(), c, "/v1/optimize", api.OptimizeRequest{App: "MM", Arch: "TeslaK40", TimeoutMS: 1})
	if err == nil || !strings.Contains(err.Error(), "504") {
		t.Fatalf("err = %v, want HTTP 504", err)
	}
	m := waitForIdle(t, c, 30*time.Second)
	if m.Queue.Cancelled == 0 {
		t.Fatalf("cancelled counter = 0 after deadline: %+v", m.Queue)
	}
}

// TestQueueSheddingWhenFull: with one worker and no wait queue, a
// second concurrent request is rejected with 503 instead of piling up.
func TestQueueSheddingWhenFull(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 1, MaxQueue: -1, Parallelism: 2})
	// MaxQueue -1 is clamped to 0 waiters by the queue.

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := call[api.SweepResponse](ctx, c, "/v1/sweep", api.SweepRequest{Arch: "GTX570"})
		errc <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := call[api.MetricsResponse](context.Background(), c, "/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.Queue.Active == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never occupied the worker")
		}
		time.Sleep(10 * time.Millisecond)
	}

	_, err := call[api.SimulateResponse](context.Background(), c, "/v1/simulate", api.SimulateRequest{App: "MM", Arch: "GTX980"})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("err = %v, want HTTP 503 (server busy)", err)
	}
	m, err := call[api.MetricsResponse](context.Background(), c, "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Queue.Rejected == 0 {
		t.Fatalf("rejected counter = 0: %+v", m.Queue)
	}
	cancel()
	<-errc
	waitForIdle(t, c, 30*time.Second)
}

func TestBadRequests(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 1})
	ctx := context.Background()

	_, err := call[api.SimulateResponse](ctx, c, "/v1/simulate", api.SimulateRequest{App: "NOPE", Arch: "TeslaK40"})
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "known:") {
		t.Fatalf("unknown app err = %v, want 400 listing known apps", err)
	}
	_, err = call[api.SimulateResponse](ctx, c, "/v1/simulate", api.SimulateRequest{App: "MM", Arch: "H100"})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("unknown arch err = %v, want 400", err)
	}
	// eval.TestSpecKernel pins the scheme validation messages; here
	// they must surface as 400s.
	_, err = call[api.SimulateResponse](ctx, c, "/v1/simulate", api.SimulateRequest{App: "MM", Arch: "TeslaK40", Scheme: "WAT"})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("unknown scheme err = %v, want 400", err)
	}
	_, err = call[api.SimulateResponse](ctx, c, "/v1/simulate", api.SimulateRequest{App: "MM", Arch: "TeslaK40", Scheme: "BSL", Agents: 2})
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "only apply to scheme CLU") {
		t.Fatalf("agents-on-BSL err = %v, want 400", err)
	}
}

// TestRequestBodyBounds pins the decoder's limits on raw bodies: an
// oversized body is a 413, trailing data after the JSON object and the
// removed execution fields (shards, epoch_quantum) are 400s, and none
// of them reaches the worker pool.
func TestRequestBodyBounds(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"oversized", `{"app":"MM","arch":"TeslaK40","scheme":"` + strings.Repeat("x", 1<<20) + `"}`, http.StatusRequestEntityTooLarge},
		{"trailing_object", `{"app":"MM","arch":"TeslaK40"}{"app":"MM"}`, http.StatusBadRequest},
		{"trailing_garbage", `{"app":"MM","arch":"TeslaK40"} x`, http.StatusBadRequest},
		{"shards_field", `{"app":"MM","arch":"TeslaK40","shards":4}`, http.StatusBadRequest},
		{"epoch_quantum_field", `{"app":"MM","arch":"TeslaK40","epoch_quantum":1}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(tc.body)))
			if rec.Code != tc.want {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.want, rec.Body.Bytes())
			}
		})
	}
	// Trailing whitespace is not trailing data: this body must get past
	// the decoder to the app lookup (the unknown app keeps the test from
	// simulating, so its 400 lists the known names).
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader("{\"app\":\"NOPE\",\"arch\":\"TeslaK40\"}\n\t ")))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "known:") {
		t.Fatalf("whitespace-terminated body: status %d body %s, want the unknown-app 400", rec.Code, rec.Body.Bytes())
	}
	var m api.MetricsResponse
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Queue.Executions != 0 {
		t.Fatalf("executions = %d, want 0 — a rejected body reached the worker pool", m.Queue.Executions)
	}
}

func TestTablesHealthMetricsEndpoints(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 1})
	ctx := context.Background()

	h, err := call[api.HealthResponse](ctx, c, "/healthz", nil)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v", h, err)
	}
	t1, err := call[report.Table](ctx, c, "/v1/table1", nil)
	if err != nil || len(t1.Rows) == 0 || !strings.Contains(t1.Title, "Table 1") {
		t.Fatalf("table1 = %+v, %v", t1, err)
	}
	t2, err := call[report.Table](ctx, c, "/v1/table2", nil)
	if err != nil || len(t2.Rows) == 0 {
		t.Fatalf("table2 = %+v, %v", t2, err)
	}
	m, err := call[api.MetricsResponse](ctx, c, "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.ProfCounters, prof.CounterNames()) {
		t.Fatalf("prof counters = %v, want %v", m.ProfCounters, prof.CounterNames())
	}
	if m.Queue.Workers != 1 {
		t.Fatalf("workers = %d, want 1", m.Queue.Workers)
	}
}

// TestSimulateSchemesDiffer pins key separation end to end: BSL and CLU
// of the same app are distinct cache entries with distinct results.
func TestSimulateSchemesDiffer(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 2})
	ctx := context.Background()
	bsl, err := call[api.SimulateResponse](ctx, c, "/v1/simulate", api.SimulateRequest{App: "MM", Arch: "TeslaK40"})
	if err != nil {
		t.Fatal(err)
	}
	clu, err := call[api.SimulateResponse](ctx, c, "/v1/simulate", api.SimulateRequest{App: "MM", Arch: "TeslaK40", Scheme: "CLU"})
	if err != nil {
		t.Fatal(err)
	}
	if bsl.Scheme != "BSL" || clu.Scheme != "CLU" {
		t.Fatalf("schemes = %s, %s", bsl.Scheme, clu.Scheme)
	}
	if bsl.Cycles == clu.Cycles && bsl.L2ReadTransactions == clu.L2ReadTransactions {
		t.Fatal("BSL and CLU produced identical results — key or kernel plumbing broken")
	}
	m, err := call[api.MetricsResponse](ctx, c, "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Queue.Executions != 2 || m.Cache.Entries != 2 {
		t.Fatalf("metrics = queue %+v cache %+v, want 2 executions / 2 entries", m.Queue, m.Cache)
	}
}

// TestOptimizeEndpoint exercises the framework route and its cache.
func TestOptimizeEndpoint(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 1})
	ctx := context.Background()
	resp, err := call[api.OptimizeResponse](ctx, c, "/v1/optimize", api.OptimizeRequest{App: "MM", Arch: "TeslaK40"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Speedup <= 0 || resp.Category == "" || resp.Optimized.Kernel == "" {
		t.Fatalf("optimize response incomplete: %+v", resp)
	}
	again, err := call[api.OptimizeResponse](ctx, c, "/v1/optimize", api.OptimizeRequest{App: "MM", Arch: "TeslaK40"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, again) {
		t.Fatal("cached optimize response differs")
	}
	m, err := call[api.MetricsResponse](ctx, c, "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Queue.Executions != 1 || m.Cache.Hits != 1 {
		t.Fatalf("metrics = %+v %+v, want one execution + one hit", m.Queue, m.Cache)
	}
}

// TestQuickSweepEndToEnd runs a small real sweep through the daemon,
// checks the schema content, and requires the response bytes to equal
// the single-process sweep's (what `evaluate -json` prints).
func TestQuickSweepEndToEnd(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 1, Parallelism: 4})
	ctx := context.Background()
	resp, err := call[api.SweepResponse](ctx, c, "/v1/sweep", api.SweepRequest{Arch: "TeslaK40", Apps: []string{"MM", "KMN"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Platforms) != 1 || len(resp.Platforms[0].Results) != 2 {
		t.Fatalf("sweep shape = %+v", resp)
	}
	p := resp.Platforms[0]
	if p.Arch != "TeslaK40" || p.Generation != "Kepler" {
		t.Fatalf("platform = %+v", p)
	}
	for _, r := range p.Results {
		if len(r.Cells) == 0 || r.Cells[0].Scheme != eval.BSL || r.Cells[0].Speedup != 1 {
			t.Fatalf("result %s cells = %+v", r.App, r.Cells)
		}
	}
	if len(p.GeoMean) == 0 {
		t.Fatal("missing geomean")
	}

	// Warm repeat is a cache hit with identical bytes.
	raw1, d1, err := c.do(ctx, "/v1/sweep", api.SweepRequest{Arch: "TeslaK40", Apps: []string{"MM", "KMN"}, Quick: true})
	if err != nil || d1 != "hit" {
		t.Fatalf("warm sweep disposition = %q, %v", d1, err)
	}
	raw2, err := api.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("warm sweep bytes differ from decoded cold response re-encoding")
	}

	var apps []*workloads.App
	for _, n := range []string{"MM", "KMN"} {
		a, err := workloads.New(n)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a)
	}
	sweep, err := eval.EvaluateAll([]*arch.Arch{arch.TeslaK40()}, apps, eval.Options{Quick: true, Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := api.Marshal(api.SweepResponseFrom(sweep))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw2, serial) {
		t.Fatalf("daemon sweep bytes differ from the serial in-process sweep:\ndaemon %d bytes, serial %d bytes", len(raw2), len(serial))
	}
}

// TestDiskCacheSurvivesRestart is the durability acceptance criterion:
// a daemon with -cache-dir computes once; a fresh daemon on the same
// directory — a new process in real life — serves the same request from
// disk with byte-identical body and no new engine execution.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := api.SimulateRequest{App: "MM", Arch: "TeslaK40"}

	c1 := newDaemon(t, server.Config{Workers: 2, CacheDir: dir})
	cold, disp, err := c1.do(ctx, "/v1/simulate", req)
	if err != nil {
		t.Fatal(err)
	}
	if disp != "miss" {
		t.Fatalf("cold disposition = %q, want miss", disp)
	}
	m, err := call[api.MetricsResponse](ctx, c1, "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.DiskCache == nil {
		t.Fatal("daemon with CacheDir reports no disk_cache metrics")
	}
	if m.DiskCache.Writes != 1 || m.DiskCache.Entries != 1 {
		t.Fatalf("disk stats after cold request = %+v, want 1 write / 1 entry", m.DiskCache)
	}

	// "Restart": a brand-new daemon (empty memory LRU) on the same dir.
	c2 := newDaemon(t, server.Config{Workers: 2, CacheDir: dir})
	warm, disp, err := c2.do(ctx, "/v1/simulate", req)
	if err != nil {
		t.Fatal(err)
	}
	if disp != "hit" {
		t.Fatalf("post-restart disposition = %q, want hit from disk", disp)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("post-restart body differs:\ncold: %s\nwarm: %s", cold, warm)
	}
	m, err = call[api.MetricsResponse](ctx, c2, "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Queue.Executions != 0 {
		t.Fatalf("restarted daemon ran %d simulations, want 0 (disk hit)", m.Queue.Executions)
	}
	if m.DiskCache == nil || m.DiskCache.Hits != 1 {
		t.Fatalf("restarted daemon disk stats = %+v, want 1 hit", m.DiskCache)
	}

	// The disk hit was promoted to memory: a repeat on the same daemon
	// is a memory hit, not another disk read.
	if _, disp, err = c2.do(ctx, "/v1/simulate", req); err != nil || disp != "hit" {
		t.Fatalf("promoted repeat = %q, %v", disp, err)
	}
	m, err = call[api.MetricsResponse](ctx, c2, "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.DiskCache.Hits != 1 {
		t.Fatalf("repeat went back to disk (%d disk hits, want 1) — promotion broken", m.DiskCache.Hits)
	}
}

// TestDiskCacheQuarantineServesMiss: corrupting the stored entry on
// disk must degrade to a recomputation, never a wrong answer — and the
// corrupt file is quarantined, not served or deleted.
func TestDiskCacheQuarantineServesMiss(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := api.SimulateRequest{App: "KMN", Arch: "GTX570"}

	c1 := newDaemon(t, server.Config{Workers: 1, CacheDir: dir})
	cold, _, err := c1.do(ctx, "/v1/simulate", req)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the middle of every stored entry.
	var entries []string
	if err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".entry") {
			entries = append(entries, path)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("found %d entry files, want 1", len(entries))
	}
	blob, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(entries[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := newDaemon(t, server.Config{Workers: 1, CacheDir: dir})
	recomputed, disp, err := c2.do(ctx, "/v1/simulate", req)
	if err != nil {
		t.Fatal(err)
	}
	if disp != "miss" {
		t.Fatalf("corrupt-entry disposition = %q, want miss (recompute)", disp)
	}
	if !bytes.Equal(cold, recomputed) {
		t.Fatal("recomputed body differs from the original — determinism broken")
	}
	m, err := call[api.MetricsResponse](ctx, c2, "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.DiskCache == nil || m.DiskCache.Corruptions != 1 || m.DiskCache.Quarantined != 1 {
		t.Fatalf("disk stats after corruption = %+v, want 1 corruption / 1 quarantined", m.DiskCache)
	}
}

// TestTransformsEndpoint pins the GET /v1/transforms vocabulary: scheme
// labels and swizzle names, each sorted, matching the registries.
func TestTransformsEndpoint(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 1})
	tr, err := call[api.TransformsResponse](context.Background(), c, "/v1/transforms", nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"BSL", "CLU", "RD"}; !reflect.DeepEqual(tr.Schemes, want) {
		t.Fatalf("schemes = %v, want %v", tr.Schemes, want)
	}
	// AllNames: the arch-aware dieblock variant is requestable too.
	if !reflect.DeepEqual(tr.Swizzles, swizzle.AllNames()) {
		t.Fatalf("swizzles = %v, want %v", tr.Swizzles, swizzle.AllNames())
	}
	if !sort.StringsAreSorted(tr.Swizzles) {
		t.Fatalf("swizzles not sorted: %v", tr.Swizzles)
	}
}

// TestSimulateSwizzleSeparatesCacheEntries pins the result-affecting
// contract end to end: the same request with and without a swizzle are
// distinct cache entries with distinct results, while spelling the same
// swizzle in a different case shares one entry byte-for-byte.
func TestSimulateSwizzleSeparatesCacheEntries(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 2})
	ctx := context.Background()

	plain, err := call[api.SimulateResponse](ctx, c, "/v1/simulate", api.SimulateRequest{App: "MM", Arch: "TeslaK40"})
	if err != nil {
		t.Fatal(err)
	}
	cold, disp, err := c.do(ctx, "/v1/simulate", api.SimulateRequest{App: "MM", Arch: "TeslaK40", Swizzle: "hilbert"})
	if err != nil {
		t.Fatal(err)
	}
	if disp != "miss" {
		t.Fatalf("first swizzled request disposition = %q, want miss", disp)
	}
	var swz api.SimulateResponse
	if err := json.Unmarshal(cold, &swz); err != nil {
		t.Fatal(err)
	}
	if swz.Swizzle != "hilbert" {
		t.Fatalf("response swizzle = %q, want hilbert", swz.Swizzle)
	}
	if plain.Swizzle != "" {
		t.Fatalf("unswizzled response carries swizzle %q", plain.Swizzle)
	}
	if plain.Cycles == swz.Cycles && plain.L2ReadTransactions == swz.L2ReadTransactions {
		t.Fatal("swizzled and plain runs identical — swizzle not applied or key aliased")
	}

	// Case-insensitive spellings resolve to one canonical cache entry.
	warm, disp, err := c.do(ctx, "/v1/simulate", api.SimulateRequest{App: "MM", Arch: "TeslaK40", Swizzle: "HILBERT"})
	if err != nil {
		t.Fatal(err)
	}
	if disp != "hit" {
		t.Fatalf("case-variant disposition = %q, want hit", disp)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("case-variant swizzle served different bytes")
	}

	_, err = call[api.SimulateResponse](ctx, c, "/v1/simulate", api.SimulateRequest{App: "MM", Arch: "TeslaK40", Swizzle: "bogus"})
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "unknown swizzle") {
		t.Fatalf("unknown swizzle err = %v, want 400 unknown swizzle", err)
	}
	if !strings.Contains(err.Error(), "groupcol, hilbert, identity, xor") {
		t.Fatalf("unknown-swizzle error must list the sorted variants: %v", err)
	}
}

// TestDaemonDefaultSwizzle: a daemon configured with -swizzle applies
// it to requests that carry none, and the response says so.
func TestDaemonDefaultSwizzle(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 1, Swizzle: "xor"})
	res, err := call[api.SimulateResponse](context.Background(), c, "/v1/simulate", api.SimulateRequest{App: "SGM", Arch: "TeslaK40"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Swizzle != "xor" {
		t.Fatalf("response swizzle = %q, want the daemon default xor", res.Swizzle)
	}
}

// TestMetricsKeySets pins the /metrics counter schema field by field:
// the exact JSON keys of the memory tier, the disk tier and the
// singleflight group, so a renamed or re-tagged counter fails here
// rather than in a dashboard.
func TestMetricsKeySets(t *testing.T) {
	c := newDaemon(t, server.Config{Workers: 1, CacheDir: t.TempDir()})
	raw, _, err := c.do(context.Background(), "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"cache":        {"bytes", "entries", "evictions", "hits", "max_bytes", "misses"},
		"disk_cache":   {"corruptions", "entries", "hits", "misses", "quarantined", "stale_temps", "write_errors", "writes"},
		"singleflight": {"inflight", "joined", "leaders"},
	}
	for field, keys := range want {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(top[field], &obj); err != nil {
			t.Fatalf("%s: %v (raw %s)", field, err, top[field])
		}
		var got []string
		for k := range obj {
			got = append(got, k)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, keys) {
			t.Errorf("%s keys = %v, want %v", field, got, keys)
		}
	}
}

// TestRequestLogStatusAndCache: each request's log line says how it
// ended — the status the daemon wrote and the cache disposition — so a
// 200, a 504 and a cache hit are told apart in the log alone.
func TestRequestLogStatusAndCache(t *testing.T) {
	logged := make(chan string, 3) // one line per request the test sends
	c := newDaemon(t, server.Config{Workers: 1, Logf: func(format string, args ...any) {
		logged <- fmt.Sprintf(format, args...)
	}})
	expectLine := func(want string) {
		t.Helper()
		select {
		case line := <-logged:
			if !strings.Contains(line, want) {
				t.Errorf("log line %q lacks %q", line, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out waiting for a log line with %q", want)
		}
	}
	ctx := context.Background()

	_, _, err := c.do(ctx, "/v1/simulate", api.SimulateRequest{App: "MM", Arch: "TeslaK40", TimeoutMS: 1})
	if err == nil || !strings.Contains(err.Error(), "504") {
		t.Fatalf("expired request: err = %v, want HTTP 504", err)
	}
	expectLine("status=504 cache=-")

	req := api.SimulateRequest{App: "NN", Arch: "TeslaK40"}
	for _, want := range []string{"status=200 cache=miss", "status=200 cache=hit"} {
		if _, _, err := c.do(ctx, "/v1/simulate", req); err != nil {
			t.Fatal(err)
		}
		expectLine(want)
	}
}

// TestOptimizeDaemonDefaults: the daemon's default swizzle and chiplet
// model apply to /v1/optimize as to every kernel it simulates, and the
// bytes equal the in-process framework run on the same kernel and
// descriptor. A default daemon still answers the committed golden.
func TestOptimizeDaemonDefaults(t *testing.T) {
	ctx := context.Background()
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	inProcess := func(swz string, dies int) []byte {
		t.Helper()
		ar, err := arch.WithChiplets(arch.TeslaK40(), dies)
		if err != nil {
			t.Fatal(err)
		}
		k, _, err := eval.Spec{Swizzle: swz}.Kernel(app, ar)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := locality.Optimize(ctx, k, ar)
		if err != nil {
			t.Fatal(err)
		}
		b, err := api.Marshal(api.OptimizeResponseFrom(app, ar, plan))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	golden, err := os.ReadFile(filepath.Join("..", "api", "testdata", "optimize_mm_teslak40.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		cfg      server.Config
		wantArch string
		want     func() []byte
	}{
		{"default", server.Config{Workers: 1}, "TeslaK40", func() []byte { return golden }},
		{"chiplets", server.Config{Workers: 1, Chiplets: 2}, "TeslaK40@2die", func() []byte { return inProcess("", 2) }},
		{"swizzle", server.Config{Workers: 1, Swizzle: "xor"}, "TeslaK40", func() []byte { return inProcess("xor", 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, _, err := newDaemon(t, tc.cfg).do(ctx, "/v1/optimize", api.OptimizeRequest{App: "MM", Arch: "TeslaK40"})
			if err != nil {
				t.Fatal(err)
			}
			var resp api.OptimizeResponse
			if err := json.Unmarshal(got, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Arch != tc.wantArch {
				t.Errorf("arch = %q, want %q", resp.Arch, tc.wantArch)
			}
			if want := tc.want(); !bytes.Equal(got, want) {
				t.Errorf("daemon bytes differ from the in-process run:\ndaemon: %s\nwant:   %s", got, want)
			}
		})
	}
}
