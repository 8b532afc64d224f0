// Package server implements ctad, the concurrent simulation-serving
// daemon: an HTTP/JSON front end over the simulation engine with a
// bounded worker pool, per-request deadlines and cancellation plumbed
// down to CTA-dispatch boundaries (engine.RunContext), a
// content-addressed result cache keyed by the canonical hash of
// (arch, app, scheme, engine.Config), and singleflight dedup so N
// identical concurrent requests cost one simulation.
//
// Memoization is sound because runs are deterministic: for a fixed key
// the engine produces bit-identical results, and internal/api renders
// them to canonical bytes — a warm response is byte-identical to the
// cold one that populated it (DESIGN.md §8).
//
// Paper mapping: the daemon serves the Section 5 evaluation (simulate,
// sweep, optimize — the Figure 11 framework decision over HTTP); the
// serving machinery itself is reproduction infrastructure beyond the
// paper's scope.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"ctacluster/internal/api"
	"ctacluster/internal/arch"
	"ctacluster/internal/cli"
	"ctacluster/internal/engine"
	"ctacluster/internal/eval"
	"ctacluster/internal/locality"
	"ctacluster/internal/prof"
	"ctacluster/internal/report"
	"ctacluster/internal/rescache"
	"ctacluster/internal/swizzle"
	"ctacluster/internal/workloads"
)

// Config tunes the daemon.
type Config struct {
	// Workers bounds requests executing simulations concurrently
	// (default 2). Each sweep additionally fans its own simulations out
	// over Parallelism engine workers.
	Workers int
	// MaxQueue bounds requests waiting for a worker; beyond it the
	// daemon sheds load with 503. Zero means the default (64); negative
	// means no waiting at all — every request must find a free worker.
	MaxQueue int
	// Parallelism is the per-sweep engine worker count (eval.Options
	// .Parallelism; default 0 = one per CPU). It never enters cache
	// keys: sweep results are byte-identical for every setting.
	Parallelism int
	// Swizzle is the default CTA tile swizzle (internal/swizzle name)
	// applied to every kernel the daemon simulates; requests carrying
	// their own swizzle field override it. UNLIKE Parallelism it is
	// result-affecting, so the resolved value is a full cache-key
	// field — daemons configured with different defaults never share
	// entries for the same request. Empty means no swizzle.
	Swizzle string
	// Chiplets is the default die count for the multi-chiplet
	// architecture model (arch.WithChiplets, DESIGN.md §13) applied to
	// every platform the daemon simulates; requests carrying their own
	// chiplets field override it. 0 keeps the monolithic Table 1 models.
	// Result-affecting like Swizzle — the derived descriptor's fields
	// enter every cache key through Key.Arch, so daemons configured with
	// different die counts never share entries.
	Chiplets int
	// CacheBytes / CacheEntries bound the result cache (defaults in
	// rescache.New).
	CacheBytes   int64
	CacheEntries int
	// CacheDir, when non-empty, adds a persistent content-addressed
	// tier under the in-memory LRU (rescache.DiskCache): every computed
	// response is also written durably, restarts warm-start from disk,
	// and a populated directory can be copied to another daemon.
	// Corrupt entries are quarantined on read and recomputed — the tier
	// can forget, never lie. Empty keeps the cache memory-only.
	CacheDir string
	// DefaultTimeout caps requests that carry no timeout_ms (default
	// 5m); MaxTimeout clamps client-requested deadlines (default 30m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Logf receives one line per served request; nil disables logging.
	Logf func(format string, args ...any)
}

// Server is the daemon state. Create with New; serve via Handler.
type Server struct {
	cfg     Config
	start   time.Time
	cache   *rescache.Tiered
	flights rescache.Group
	queue   *queue
	mux     *http.ServeMux
}

// New builds a daemon with cfg, applying defaults to zero fields. It
// fails only when a configured persistent cache directory cannot be
// opened — a daemon asked for durability must not silently run without
// it.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	} else if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Minute
	}
	var disk *rescache.DiskCache
	if cfg.CacheDir != "" {
		var err error
		if disk, err = rescache.OpenDisk(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:   cfg,
		start: time.Now(),
		cache: rescache.NewTiered(rescache.New(cfg.CacheBytes, cfg.CacheEntries), disk),
		queue: newQueue(cfg.Workers, cfg.MaxQueue),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("GET /v1/table1", s.handleTable1)
	mux.HandleFunc("GET /v1/table2", s.handleTable2)
	mux.HandleFunc("GET /v1/transforms", s.handleTransforms)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// timeout resolves a request's effective deadline.
func (s *Server) timeout(reqMS int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if reqMS > 0 {
		d = time.Duration(reqMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// writeJSON serves canonical bytes with the cache-disposition header
// ("hit", "miss" or "dedup") — the header, not the body, carries cache
// status so warm and cold bodies stay byte-identical.
func writeJSON(w http.ResponseWriter, status int, disposition string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if disposition != "" {
		w.Header().Set("X-Ctad-Cache", disposition)
	}
	w.WriteHeader(status)
	w.Write(body)
}

// fail renders the uniform error body with the right status.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	body, mErr := api.Marshal(api.ErrorResponse{Error: err.Error()})
	if mErr != nil {
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, status, "", body)
}

// failFor maps an error to its transport status: bad input is 400,
// shed load 503, an expired deadline 504, everything else 500.
func (s *Server) failFor(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errBusy):
		s.fail(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.fail(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is for the log's benefit.
		s.fail(w, http.StatusServiceUnavailable, err)
	default:
		s.fail(w, http.StatusInternalServerError, err)
	}
}

// maxBodyBytes bounds a request body. Real requests are under 1 KB;
// the bound only stops a broken or hostile client from streaming an
// unbounded body into the decoder.
const maxBodyBytes = 1 << 20

// decode parses a JSON request body strictly: an unknown field or
// anything but whitespace after the object is a 400, a body over
// maxBodyBytes a 413. On failure it writes the error response itself
// and returns false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var tooBig *http.MaxBytesError
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); errors.As(terr, &tooBig) {
			err = terr
		} else if terr != io.EOF {
			err = errors.New("trailing data after the JSON object")
		}
	}
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		s.fail(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBodyBytes))
	default:
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	}
	return false
}

// compute is the serving core every expensive endpoint shares: result
// cache, then singleflight, then the bounded worker pool, then fn. Each
// request waits under its own context bounded by its effective
// deadline; fn runs under the flight's context, which ends only when
// every request waiting on it has left, and must return canonical
// bytes.
func (s *Server) compute(w http.ResponseWriter, r *http.Request, key string, timeoutMS int64, fn func(ctx context.Context) ([]byte, error)) {
	if body, ok := s.cache.Get(key); ok {
		writeJSON(w, http.StatusOK, "hit", body)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(timeoutMS))
	defer cancel()

	body, shared, err := s.flights.Do(ctx, key, func(ctx context.Context) ([]byte, error) {
		if err := s.queue.acquire(ctx); err != nil {
			return nil, err
		}
		var runErr error
		defer func() { s.queue.release(runErr) }()
		s.queue.noteExecution()
		var out []byte
		out, runErr = fn(ctx)
		return out, runErr
	})
	if err != nil {
		s.failFor(w, err)
		return
	}
	s.cache.Put(key, body)
	disposition := "miss"
	if shared {
		disposition = "dedup"
	}
	writeJSON(w, http.StatusOK, disposition, body)
}

// swizzleFor resolves a request's swizzle, falling back to the daemon's
// configured default.
func (s *Server) swizzleFor(req string) (string, error) {
	if strings.TrimSpace(req) == "" {
		req = s.cfg.Swizzle
	}
	return cli.Swizzle(req)
}

// chipletFor applies the chiplet model to the resolved platforms: the
// request's die count when present, else the daemon's configured
// default (0 = monolithic, like an empty swizzle field). Range errors
// surface arch.WithChiplets' own messages as 400s.
func (s *Server) chipletFor(req int, platforms []*arch.Arch) ([]*arch.Arch, error) {
	dies := s.cfg.Chiplets
	if req != 0 {
		dies = req
	}
	return cli.Chiplet(dies, platforms)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req api.SimulateRequest
	if !s.decode(w, r, &req) {
		return
	}
	app, err := cli.App(req.App)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ar, err := cli.Platform(req.Arch)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ars, err := s.chipletFor(req.Chiplets, []*arch.Arch{ar})
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ar = ars[0]
	swz, err := s.swizzleFor(req.Swizzle)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	spec := eval.Spec{Swizzle: swz, Scheme: req.Scheme, Agents: req.Agents, Bypass: req.Bypass, Prefetch: req.Prefetch}
	k, scheme, err := spec.Kernel(app, ar)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	cfg := engine.DefaultConfig(ar)
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	if req.MaxCycles > 0 {
		cfg.MaxCycles = req.MaxCycles
	}
	kernelID := fmt.Sprintf("%s/%s/agents=%d/bypass=%t/prefetch=%t",
		app.Name(), scheme, req.Agents, req.Bypass, req.Prefetch)
	// The swizzle is its own key field (result-affecting).
	key := rescache.ConfigKey(kernelID, swz, cfg)

	start := time.Now()
	s.compute(w, r, key, req.TimeoutMS, func(ctx context.Context) ([]byte, error) {
		res, err := engine.RunContext(ctx, cfg, k)
		if err != nil {
			return nil, err
		}
		return api.Marshal(api.SimulateResponseFrom(app.Name(), ar.Name, scheme, swz, res))
	})
	s.logf("simulate %s swizzle=%q in %v", kernelID, swz, time.Since(start))
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	platforms, err := cli.Platforms(req.Arch)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	// Chiplet derivation happens before the key is built, so the derived
	// descriptors' fields (die count, interposer penalties) enter the
	// sweep key through Key.Arch below.
	platforms, err = s.chipletFor(req.Chiplets, platforms)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	apps, err := cli.Apps(strings.Join(req.Apps, ","))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	swz, err := s.swizzleFor(req.Swizzle)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	// The sweep key covers the full platform descriptors, the canonical
	// app list, the resolved swizzle and every option that feeds the
	// simulations. Parallelism is deliberately excluded (results are
	// byte-identical for any worker count — the determinism goldens pin
	// this).
	kb := rescache.NewKey("sweep/v1")
	for _, ar := range platforms {
		kb.Arch(ar)
	}
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name()
	}
	kb.Strs(names).Bool(req.Quick).Int(req.Seed).Str(swz)
	key := kb.Sum()

	start := time.Now()
	s.compute(w, r, key, req.TimeoutMS, func(ctx context.Context) ([]byte, error) {
		opt := eval.Options{
			Ctx:         ctx,
			Seed:        req.Seed,
			Quick:       req.Quick,
			Parallelism: s.cfg.Parallelism,
			Swizzle:     swz,
		}
		sweep, err := eval.EvaluateAll(platforms, apps, opt, nil)
		if err != nil {
			return nil, err
		}
		return api.Marshal(api.SweepResponseFrom(sweep))
	})
	s.logf("sweep %d platforms x %d apps in %v", len(platforms), len(apps), time.Since(start))
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req api.OptimizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	app, err := cli.App(req.App)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ar, err := cli.Platform(req.Arch)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	key := rescache.NewKey("optimize/v1").Str(app.Name()).Arch(ar).Sum()

	start := time.Now()
	s.compute(w, r, key, req.TimeoutMS, func(ctx context.Context) ([]byte, error) {
		plan, err := locality.Optimize(ctx, app, ar)
		if err != nil {
			return nil, err
		}
		return api.Marshal(api.OptimizeResponseFrom(app, ar, plan))
	})
	s.logf("optimize %s on %s in %v", app.Name(), ar.Name, time.Since(start))
}

func (s *Server) handleTable1(w http.ResponseWriter, r *http.Request) {
	s.serveStatic(w, api.TableResponseFrom(report.Table1(arch.All())))
}

func (s *Server) handleTable2(w http.ResponseWriter, r *http.Request) {
	s.serveStatic(w, api.TableResponseFrom(report.Table2(workloads.Table2())))
}

// handleTransforms lists the transform vocabulary: scheme labels and
// CTA tile swizzle names, each sorted, so clients can discover what a
// simulate/sweep request may carry. AllNames, not Names: the die-aware
// dieblock variant is requestable (it degenerates to identity on
// monolithic platforms), so clients must see it.
func (s *Server) handleTransforms(w http.ResponseWriter, r *http.Request) {
	s.serveStatic(w, api.TransformsResponse{
		Schemes:  eval.SpecSchemes(),
		Swizzles: swizzle.AllNames(),
	})
}

func (s *Server) serveStatic(w http.ResponseWriter, v any) {
	body, err := api.Marshal(v)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, "", body)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.serveStatic(w, api.HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Mem().Stats()
	fs := s.flights.Stats()
	resp := api.MetricsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Cache: api.CacheStats{
			Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
			Entries: cs.Entries, Bytes: cs.Bytes, MaxBytes: cs.MaxBytes,
		},
		Singleflight: api.FlightStats{Leaders: fs.Leaders, Joined: fs.Joined, Inflight: fs.Inflight},
		Queue:        s.queue.stats(),
		ProfCounters: prof.CounterNames(),
	}
	if disk := s.cache.Disk(); disk != nil {
		ds := disk.Stats()
		resp.DiskCache = &api.DiskCacheStats{
			Hits: ds.Hits, Misses: ds.Misses, Writes: ds.Writes,
			WriteErrors: ds.WriteErrors, Corruptions: ds.Corruptions,
			Quarantined: ds.Quarantined, StaleTemps: ds.StaleTemps,
			Entries: ds.Entries,
		}
	}
	s.serveStatic(w, resp)
}
