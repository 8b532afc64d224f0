package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ctacluster/internal/api"
	"ctacluster/internal/calib"
	"ctacluster/internal/server"
)

// serveApps are the small Table 2 apps serve-mix simulates: one BSL or
// CLU run of each takes a few tens of ms on TeslaK40 and GTX980, so cold
// requests stay short next to the send interval times two connections.
var serveApps = []string{"SGM", "DCT", "ATX", "MVT", "3CV", "BC", "NW", "MON", "DXT", "SAD", "BS"}

var servePlatforms = []string{"TeslaK40", "GTX980"}

const (
	serveConns = 2
	// Each block of serveBlock requests holds this many warm repeats
	// and cold keys, plus one re-send of a block's cold key: 75% warm,
	// 20% cold, 5% dedup joiners.
	serveBlock     = 20
	serveBlockWarm = 15
	serveBlockCold = 4
	// lateSend is how far past its due time a send counts as late.
	lateSend = time.Millisecond
	// The runtime's timers fire at millisecond granularity on Linux, so
	// a sleep until a due time wakes up to a millisecond late, half a
	// millisecond on average, which would count as request latency. The
	// generator sleeps until spinWindow before the due time and yields
	// the processor from there on.
	spinWindow = 1500 * time.Microsecond
)

type reqKind int

const (
	warmReq reqKind = iota
	coldReq
	dedupReq
)

func (k reqKind) String() string {
	return [...]string{"warm", "cold", "dedup"}[k]
}

// serveKey is one simulate request. The engine seed is invisible in the
// result on these parts (their schedulers draw no random numbers), so a
// fresh seed makes a cold cache key whose answer is still the
// calibration target.
type serveKey struct {
	app, arch string
	clu       bool
	seed      int64
}

type serveReq struct {
	kind reqKind
	hot  int // index into the hot set, warm requests only
	key  serveKey
	body []byte
	due  time.Time

	// Set by the sender that handles the request.
	done        time.Time
	disposition string
	size        int
}

// serveWorkload serves simulate requests from an in-process ctad over
// loopback HTTP, open loop at a fixed rate: warm repeats of a pre-warmed
// hot set, cold keys, and re-sends of a cold key while it is in flight.
type serveWorkload struct {
	rng     *rand.Rand
	apps    []string
	hotN    int
	rate    float64 // requests per second
	loadRef func() (*calib.Reference, error)

	ref         *calib.Reference
	srv         *httptest.Server
	client      *http.Client
	clientTrace *httptrace.ClientTrace
	conns       atomic.Int64
	keys        []serveKey // every (app, platform, scheme), seed 0
	hotBody     [][]byte   // the miss body of each hot key
	samples     []simSample
	warmNext    []int // the rest of the current pass over the hot set
	coldNext    []int // the rest of the current pass over keys
	nextSeed    int64

	mu     sync.Mutex
	bodies map[string][]byte // first body seen for each cold request

	// Traced-half counters.
	lateSends int
	respBytes []float64
}

func newServeWorkload(rng *rand.Rand, apps []string, hotN int, rate float64) *serveWorkload {
	return &serveWorkload{rng: rng, apps: apps, hotN: hotN, rate: rate, loadRef: calib.Load}
}

func (w *serveWorkload) setup(t *tally) error {
	w.close()
	ref, err := w.loadRef()
	if err != nil {
		return err
	}
	w.ref = ref
	srv, err := server.New(server.Config{Workers: serveConns, Parallelism: 1})
	if err != nil {
		return err
	}
	w.srv = httptest.NewServer(srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	w.conns.Store(0)
	w.clientTrace = &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) {
		if !ci.Reused {
			w.conns.Add(1)
		}
	}}
	w.bodies = map[string][]byte{}
	w.nextSeed = 2 // seed 0 and 1 both mean the engine default the hot set uses

	w.keys = w.keys[:0]
	for _, a := range w.apps {
		for _, p := range servePlatforms {
			for _, clu := range []bool{false, true} {
				w.keys = append(w.keys, serveKey{app: a, arch: p, clu: clu})
			}
		}
	}
	if w.hotN > len(w.keys) {
		return fmt.Errorf("hot set of %d keys needs more than the %d app/platform/scheme combinations", w.hotN, len(w.keys))
	}

	// Pre-warm: every hot key once, over both connections.
	reqs := make([]*serveReq, w.hotN)
	for i := range reqs {
		if reqs[i], err = newServeReq(warmReq, w.keys[i]); err != nil {
			return err
		}
		reqs[i].hot = i
	}
	w.hotBody = make([][]byte, w.hotN)
	w.samples = make([]simSample, w.hotN)
	var failed error
	var mu sync.Mutex
	w.pump(reqs, func(r *serveReq, body []byte, _ string, err error) {
		if err == nil {
			var s simSample
			if s, err = w.checkTarget(r.key, body); err == nil {
				w.hotBody[r.hot], w.samples[r.hot] = body, s
			}
		}
		t.check(err)
		if err != nil {
			mu.Lock()
			failed = errors.Join(failed, err)
			mu.Unlock()
		}
	})
	if failed != nil {
		return fmt.Errorf("pre-warm: %w", failed)
	}
	return nil
}

func newServeReq(kind reqKind, k serveKey) (*serveReq, error) {
	body, err := json.Marshal(api.SimulateRequest{App: k.app, Arch: k.arch, Scheme: scheme(k.clu), Seed: k.seed})
	if err != nil {
		return nil, err
	}
	return &serveReq{kind: kind, key: k, body: body}, nil
}

// pump sends reqs over serveConns sender goroutines, each request no
// earlier than its due time (a zero due time means at once), and calls
// handle for every response. It returns, once every response is
// handled, how many requests it handed to the senders more than
// lateSend past their due time.
func (w *serveWorkload) pump(reqs []*serveReq, handle func(r *serveReq, body []byte, disposition string, err error)) (late int) {
	// Sized to the number of sends, so the generator never blocks and
	// late senders show up as queueing delay from the due time.
	ch := make(chan *serveReq, len(reqs))
	var wg sync.WaitGroup
	for range serveConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ch {
				body, disp, err := w.do(r)
				handle(r, body, disp, err)
			}
		}()
	}
	for _, r := range reqs {
		if !r.due.IsZero() {
			waitUntil(r.due)
			if time.Since(r.due) > lateSend {
				late++
			}
		}
		ch <- r
	}
	close(ch)
	wg.Wait()
	return late
}

// waitUntil returns at t, sleeping until spinWindow before it.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func (w *serveWorkload) do(r *serveReq) ([]byte, string, error) {
	req, err := http.NewRequest(http.MethodPost, w.srv.URL+"/v1/simulate", bytes.NewReader(r.body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), w.clientTrace))
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s: status %d: %s", r.body, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Ctad-Cache"), nil
}

// checkTarget decodes a simulate response and holds its cycles to the
// calibration target of its key.
func (w *serveWorkload) checkTarget(k serveKey, body []byte) (simSample, error) {
	var resp api.SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return simSample{}, fmt.Errorf("decode simulate response: %w", err)
	}
	s := simSample{cycles: resp.Cycles, occupancy: resp.AchievedOccupancy, l1Hit: resp.L1HitRate, l2ReadTxn: resp.L2ReadTransactions}
	return s, checkTarget(w.ref, k.arch, k.app, k.clu, resp.Cycles)
}

// check verifies one timed response: a warm body must equal the hot
// key's miss body byte for byte; a cold or dedup body must meet the
// calibration target and equal every other body for its request.
func (w *serveWorkload) check(r *serveReq, body []byte) error {
	if r.kind == warmReq {
		if !bytes.Equal(body, w.hotBody[r.hot]) {
			return fmt.Errorf("%s: warm body differs from the miss body", r.body)
		}
		return nil
	}
	if _, err := w.checkTarget(r.key, body); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	first, ok := w.bodies[string(r.body)]
	if !ok {
		w.bodies[string(r.body)] = body
		return nil
	}
	if !bytes.Equal(body, first) {
		return fmt.Errorf("%s: %s body differs from the first body for its key", r.body, r.kind)
	}
	return nil
}

// schedule draws n requests in blocks of serveBlock, each block's order
// shuffled; the dedup re-send follows its cold original directly.
// Warm and cold keys walk seeded permutations, so every run sees the
// same mix in a different order.
func (w *serveWorkload) schedule(n int) ([]*serveReq, error) {
	out := make([]*serveReq, 0, n+serveBlock)
	for len(out) < n {
		kinds := make([]reqKind, 0, serveBlock-1)
		for i := 0; i < serveBlockWarm+serveBlockCold; i++ {
			k := coldReq
			if i < serveBlockWarm {
				k = warmReq
			}
			kinds = append(kinds, k)
		}
		w.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		resend, colds := w.rng.Intn(serveBlockCold), 0
		for _, k := range kinds {
			if k == warmReq {
				if len(w.warmNext) == 0 {
					w.warmNext = w.rng.Perm(w.hotN)
				}
				i := w.warmNext[0]
				w.warmNext = w.warmNext[1:]
				r, err := newServeReq(warmReq, w.keys[i])
				if err != nil {
					return nil, err
				}
				r.hot = i
				out = append(out, r)
				continue
			}
			if len(w.coldNext) == 0 {
				w.coldNext = w.rng.Perm(len(w.keys))
			}
			key := w.keys[w.coldNext[0]]
			w.coldNext = w.coldNext[1:]
			key.seed = w.nextSeed
			w.nextSeed++
			r, err := newServeReq(coldReq, key)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
			if colds == resend {
				out = append(out, &serveReq{kind: dedupReq, key: r.key, body: r.body})
			}
			colds++
		}
	}
	return out[:n], nil
}

func (w *serveWorkload) measure(d time.Duration, tr *tracer, t *tally) ([][]float64, error) {
	n := max(1, int(d.Seconds()*w.rate))
	reqs, err := w.schedule(n)
	if err != nil {
		return nil, err
	}
	interval := time.Duration(float64(time.Second) / w.rate)
	start := time.Now()
	for i, r := range reqs {
		r.due = start.Add(time.Duration(i) * interval)
	}
	late := w.pump(reqs, func(r *serveReq, body []byte, disp string, err error) {
		r.done, r.disposition, r.size = time.Now(), disp, len(body)
		if err == nil {
			err = w.check(r, body)
		}
		t.check(err)
	})
	lat := make([]float64, len(reqs))
	for i, r := range reqs {
		d := r.done.Sub(r.due)
		lat[i] = ms(d)
		if tr != nil {
			tr.add(span{Name: "request " + r.kind.String(), StartUS: tr.since(r.due), DurUS: us(d), SelfUS: us(d), Note: r.disposition})
			w.respBytes = append(w.respBytes, float64(r.size))
		}
	}
	if tr != nil {
		w.lateSends += late
	}
	return [][]float64{lat}, nil
}

func (w *serveWorkload) layers(m metricSet, _ *phase) error {
	setSimLayers(m, w.samples)
	resp, err := w.client.Get(w.srv.URL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var mr api.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return fmt.Errorf("decode /metrics: %w", err)
	}
	hits, misses := float64(mr.Cache.Hits), float64(mr.Cache.Misses)
	m.set("rescache.hits", hits)
	m.set("rescache.misses", misses)
	m.set("rescache.joined", float64(mr.Singleflight.Joined))
	m.set("rescache.hit_ratio", hits/(hits+misses))
	m.set("server.executions", float64(mr.Queue.Executions))
	m.set("server.rejected", float64(mr.Queue.Rejected))
	m.set("api.resp_bytes", mean(w.respBytes))
	m.set("client.conns", float64(w.conns.Load()))
	m.set("client.late_sends", float64(w.lateSends))
	return nil
}

func (w *serveWorkload) openLoop() bool { return true }

func (w *serveWorkload) close() {
	if w.srv == nil {
		return
	}
	w.client.CloseIdleConnections()
	w.srv.Close()
	w.srv = nil
}
