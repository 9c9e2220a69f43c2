// Command seldond is the long-running taint-analysis service: it loads
// a specification store learned by `seldon learn -o` and serves taint checks
// over HTTP until SIGINT/SIGTERM, then drains in-flight requests.
//
// Usage:
//
//	seldon learn -generate 240 -o specs.json  # learn and persist the store
//	seldond -specs specs.json -addr :8647     # serve it
//
//	curl -s localhost:8647/v1/healthz       # liveness
//	curl -s localhost:8647/v1/readyz        # readiness (503 while draining)
//	curl -s localhost:8647/v1/specs?role=sink
//	curl -s --data-binary @app.py 'localhost:8647/v1/check?filename=app.py&trace=1'
//	curl -s localhost:8647/metrics          # route latency p50/p95/p99, counters, gauges
//	curl -s -H 'Accept: text/plain' localhost:8647/metrics  # the same as Prometheus text
//	curl -s localhost:8647/debug/traces     # ring of recent request traces
//
// Hot reload: after re-learning into the same store file, POST
// /v1/reload re-reads it and swaps the new specs in atomically —
// in-flight checks finish against the store they started with, and an
// invalid store is rejected (422) while the old one keeps serving:
//
//	seldon learn -generate 240 -o specs.json && curl -s -XPOST localhost:8647/v1/reload
//
// The operator surface (/metrics, /debug/pprof/) shares the service mux,
// so one port carries traffic and telemetry.
//
// Repeated checks are served from a bounded in-memory result cache and
// concurrent identical checks coalesce onto one analysis; size the
// cache with -check-cache-entries / -check-cache-bytes (0 turns both
// layers off). /v1/healthz prints the hit rate and pool stats from the
// counters /metrics serves under the same names.
//
// Continuous learning: -session-dir attaches the incremental-learning
// session persisted by `seldon learn -session-dir`, enabling POST
// /v1/feedback — accept/reject a check finding (by its id) or a
// (symbol, role) pair, and the server pins the verdict as a hard
// constraint, re-solves warm-started over the cached constraint blocks,
// and swaps the re-learned store in as a new generation (check results
// re-cache under the new epoch automatically). The updated session is
// persisted back on shutdown.
//
//	seldon learn -generate 240 -session-dir s -o specs.json
//	seldond -specs specs.json -session-dir s
//	curl -s -XPOST -d '{"finding_id":"<id>","verdict":"reject"}' localhost:8647/v1/feedback
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seldon/internal/checkcache"
	"seldon/internal/core"
	"seldon/internal/incr"
	"seldon/internal/obs"
	"seldon/internal/obs/trace"
	"seldon/internal/service"
	"seldon/internal/specio"
)

func main() {
	var (
		specsPath = flag.String("specs", "", "specification store to serve (JSON, from `seldon learn -o`); required")
		addr      = flag.String("addr", ":8647", "listen address (\":0\" picks a free port)")
		workers   = flag.Int("workers", 0, "concurrent checks (0 = GOMAXPROCS, 1 = serialized)")
		queue     = flag.Int("queue", 0, "requests allowed to wait for a worker before 429 (0 = 2x workers)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-check deadline (503 when exceeded)")
		maxBody   = flag.Int64("max-body", 1<<20, "request body cap in bytes (413 when exceeded)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		traceRing = flag.Int("trace-ring", 0, "recent request traces kept for /debug/traces (0 = 256)")
		cacheEnt  = flag.Int("check-cache-entries", checkcache.DefaultMaxEntries,
			"check-result cache entry cap (0 disables the cache and coalescing)")
		cacheBytes = flag.Int64("check-cache-bytes", checkcache.DefaultMaxBytes,
			"check-result cache byte cap (0 disables the cache and coalescing)")
		sessionDir = flag.String("session-dir", "",
			"incremental-learning session directory (from `seldon learn -session-dir`); enables POST /v1/feedback")
		verbose = flag.Bool("v", false, "log requests and lifecycle events to stderr")
	)
	flag.Parse()

	if *specsPath == "" {
		fatal(fmt.Errorf("need -specs (learn one with `seldon learn -generate 240 -o specs.json`)"))
	}
	sp, meta, err := specio.Load(*specsPath)
	if err != nil {
		fatal(err)
	}

	var logger *obs.Logger
	if *verbose {
		logger = obs.NewLogger(os.Stderr)
	}
	// On the CLI "0" reads as "off"; the library uses negative for off
	// and 0 for "default", so translate here.
	entries, capBytes := *cacheEnt, *cacheBytes
	if entries <= 0 || capBytes <= 0 {
		entries, capBytes = -1, -1
	}

	reg := obs.New()

	// A session turns on the continuous-learning loop: /v1/feedback pins
	// operator verdicts, re-solves incrementally, and publishes the
	// re-learned store as a new generation. The session adopts the seed
	// and knobs persisted by `seldon learn -session-dir`; on shutdown the
	// accumulated pins and solution are written back.
	var sess *incr.Session
	if *sessionDir != "" {
		var err error
		sess, err = incr.LoadDir(*sessionDir, nil, core.Config{Workers: 1, Metrics: reg, Log: logger})
		if err != nil {
			fatal(fmt.Errorf("loading session from %s: %w (create one with `seldon learn -session-dir`)", *sessionDir, err))
		}
		fmt.Printf("seldond: learning session loaded from %s (%d corpus files, %d pins); /v1/feedback enabled\n",
			*sessionDir, sess.Len(), sess.Pins())
	}

	srv := service.New(service.Config{
		Spec:              sp,
		Meta:              meta,
		Session:           sess,
		StorePath:         *specsPath,
		Workers:           *workers,
		QueueDepth:        *queue,
		RequestTimeout:    *timeout,
		MaxBodyBytes:      *maxBody,
		DrainTimeout:      *drain,
		CheckCacheEntries: entries,
		CheckCacheBytes:   capBytes,
		Metrics:           reg,
		Log:               logger,
		Tracer:            trace.New(*traceRing),
		OnReady: func(addr string) {
			fmt.Printf("seldond: listening on %s\n", addr)
		},
	})

	fmt.Printf("seldond: serving %d specification entries (%d sources, %d sanitizers, %d sinks) from %s\n",
		sp.Len(), len(sp.Sources), len(sp.Sanitizers), len(sp.Sinks), *specsPath)
	if fp, err := specio.FingerprintStore(sp, meta); err == nil {
		fmt.Printf("seldond: store fingerprint %s (POST /v1/reload to hot-swap after re-learning)\n", fp)
	}
	if meta.CorpusFingerprint != "" {
		fmt.Printf("seldond: store provenance: %d corpus files, %d events, fingerprint %s\n",
			meta.CorpusFiles, meta.Events, meta.CorpusFingerprint)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Run binds synchronously, so a busy port fails fast here rather
	// than after the process looks healthy.
	if err := srv.Run(ctx, *addr); err != nil {
		fatal(err)
	}
	if sess != nil {
		if err := sess.SaveDir(*sessionDir); err != nil {
			fatal(fmt.Errorf("persisting session: %w", err))
		}
		fmt.Printf("seldond: session persisted to %s (%d pins)\n", *sessionDir, sess.Pins())
	}
	fmt.Println("seldond: drained, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seldond:", err)
	os.Exit(1)
}
