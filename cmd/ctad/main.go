// Command ctad is the CTA-clustering simulation daemon: a long-running
// HTTP/JSON service over the simulation engine with a bounded worker
// pool, a content-addressed result cache (deterministic runs are
// memoized), singleflight dedup of identical concurrent requests, and
// per-request deadlines with cancellation plumbed into the engine.
//
// Usage:
//
//	ctad                          # serve on :8321
//	ctad -addr 127.0.0.1:9000     # explicit listen address
//	ctad -workers 4 -parallel 8   # 4 concurrent requests, 8 sims each
//	ctad -cache-mb 256            # larger result cache
//	ctad -cache-dir /var/ctad     # persistent result cache (survives restarts)
//	ctad -swizzle xor             # default CTA tile swizzle for every request
//	ctad -chiplet 2               # serve the 2-die chiplet model by default
//
// -swizzle sets the default CTA tile swizzle (internal/swizzle) applied
// to every kernel the daemon simulates (requests carrying their own
// swizzle field override it); unlike -parallel it is result-affecting,
// so the resolved value is a full cache-key field. -chiplet sets the
// default die count of the multi-chiplet architecture model
// (arch.WithChiplets; requests carrying their own chiplets field
// override it); also result-affecting — the derived descriptor's fields
// enter every cache key.
//
// -cache-dir adds a durable content-addressed tier under the in-memory
// LRU: every computed response is written atomically (tmp + fsync +
// rename) under its sha256 key, restarts warm-start from disk, and a
// populated directory can be copied to a new fleet member as a warm
// cache. Entries failing verification on read are quarantined and
// recomputed — corruption degrades to a miss, never a wrong hit
// (DESIGN.md §10).
//
// Endpoints: POST /v1/simulate, /v1/sweep, /v1/optimize; GET /v1/table1,
// /v1/table2, /v1/transforms, /healthz, /metrics. See README "Serving" for a curl
// walkthrough. SIGINT/SIGTERM drain in-flight requests before exit.
//
// Paper mapping: the endpoints expose the Section 5 evaluation and the
// Figure 11 automatic-optimization decision; the daemon itself is
// reproduction infrastructure beyond the paper's scope.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"ctacluster/internal/cli"
	"ctacluster/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ctad: ")
	addr := flag.String("addr", ":8321", "listen address")
	workers := flag.Int("workers", 2, "concurrent requests executing simulations")
	maxQueue := flag.Int("queue", 64, "requests allowed to wait for a worker before 503")
	parallelFlag := cli.RegisterParallelFlag()
	cacheMB := flag.Int64("cache-mb", 64, "result cache size in MiB")
	cacheEntries := flag.Int("cache-entries", 4096, "result cache entry bound")
	cacheDir := cli.RegisterCacheDirFlag()
	swizzleFlag := cli.RegisterSwizzleFlag()
	chipletFlag := cli.RegisterChipletFlag()
	timeout := flag.Duration("timeout", 5*time.Minute, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 30*time.Minute, "clamp on client-requested deadlines")
	grace := flag.Duration("grace", 30*time.Second, "shutdown drain period for in-flight requests")
	quiet := flag.Bool("q", false, "suppress per-request logging")
	flag.Parse()

	parallel, err := cli.Parallelism(*parallelFlag)
	if err != nil {
		log.Fatal(err)
	}
	swz, err := cli.Swizzle(*swizzleFlag)
	if err != nil {
		log.Fatal(err)
	}
	if *chipletFlag != 0 && (*chipletFlag < 2 || *chipletFlag > 8) {
		log.Fatalf("-chiplet must be 0 (monolithic) or 2-8 dies, got %d", *chipletFlag)
	}
	cfg := server.Config{
		Workers:        *workers,
		MaxQueue:       *maxQueue,
		Parallelism:    parallel,
		Swizzle:        swz,
		Chiplets:       *chipletFlag,
		CacheBytes:     *cacheMB << 20,
		CacheEntries:   *cacheEntries,
		CacheDir:       *cacheDir,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}

	daemon, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Addr: *addr, Handler: daemon.Handler()}

	// Graceful shutdown: stop accepting on SIGINT/SIGTERM, then drain —
	// queued and in-flight requests get up to -grace to flush their
	// responses before the listener is torn down.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		log.Printf("shutting down, draining for up to %v", *grace)
		drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		done <- srv.Shutdown(drainCtx)
	}()

	diskNote := ""
	if *cacheDir != "" {
		diskNote = " cache-dir=" + *cacheDir
	}
	log.Printf("serving on %s (workers=%d queue=%d parallel=%d cache=%dMiB%s)",
		*addr, *workers, *maxQueue, parallel, *cacheMB, diskNote)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if err := <-done; err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	log.Print("drained cleanly")
}
