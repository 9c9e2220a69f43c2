// Package service is the long-running taint-analysis server behind
// cmd/seldond: it loads a specification store (internal/specio) once at
// startup and then answers check requests over HTTP, running the
// pyparse → dataflow → propgraph → taint pipeline per request.
//
// Endpoints (mounted alongside the internal/obs operator surface, so
// /metrics and /debug/pprof/ are served from the same mux):
//
//	POST /v1/check    Python source in the body → taint findings as JSON
//	GET  /v1/specs    filtered specification lookup
//	GET  /v1/healthz  liveness + store summary + active store fingerprint
//	GET  /v1/readyz   readiness: 503 while draining or before the store loads
//	POST /v1/reload   re-read the spec store and swap it in atomically
//	POST /v1/feedback accept/reject a finding or (symbol, role); pins the
//	                  variable, re-solves incrementally, publishes a new
//	                  store generation (requires Config.Session)
//
// Request-scoped tracing: every /v1/check runs under a span tree
// (admission → queue → parse → dataflow → taint → encode) with a trace
// ID returned in X-Trace-Id, echoed in error bodies and request logs,
// and propagated via W3C traceparent headers in both directions. The
// bounded ring of recent traces is served from GET /debug/traces.
//
// The server is built for sustained traffic: analysis runs on
// Config.Workers standing goroutines (core.Config.Workers semantics),
// started once by New, each owning one parse+dataflow scratch; requests
// beyond them wait in a bounded queue and overflow is rejected with 429,
// request bodies are size-capped (413), every check that may wait — for
// a worker, an analysis, another request's analysis — carries a context
// deadline, and Run drains in-flight requests on shutdown.
//
// Hot reload: the loaded specification lives behind a read-write lock.
// Each check snapshots the store once at admission and runs entirely
// against that snapshot, so /v1/reload swaps specs without dropping or
// mixing in-flight checks; a reload that fails to load or validate
// leaves the previous store serving.
//
// Telemetry: counts live in Config.Metrics; state (the check cache's
// residency, the session's pins) lives with its owner and is mirrored as
// a gauge where it changes. /v1/healthz reads each from where it lives,
// so it agrees with /metrics.
//
// Repeated work is nearly free. Three layers stack on the check path:
//
//   - Check-result cache: a bounded, sharded LRU (internal/checkcache)
//     keyed on (analyzer version, store generation, filename, options,
//     body) holds the encoded findings; an identical request against the
//     same store generation is a map lookup plus a per-request splice of
//     elapsed_ms and trace_id, answered before anything a waiting
//     request needs (deadline, flight table) is set up. Reload starts a
//     new generation, so stale entries stop being addressable rather
//     than needing a flush.
//   - Single-flight coalescing: concurrent identical-key requests
//     collapse onto one in-flight analysis. The leader takes a worker
//     slot; followers wait on the flight without consuming one, keep
//     their own deadlines, and are marked coalesced in their trace.
//   - Scratch reuse: each worker's parse and dataflow state (token
//     buffers, analyzer tables) serves every miss it runs, scrubbed
//     between them through core.Scratch's Reset seam, and its stack stays
//     grown for the recursive-descent parser.
//
// Cached, coalesced, and cold responses are byte-identical modulo
// trace_id: every 200 is the cached "core" encoding plus the same
// splice, so callers cannot observe which path served them.
package service

import (
	"context"
	"errors"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seldon/internal/checkcache"
	"seldon/internal/core"
	"seldon/internal/incr"
	"seldon/internal/obs"
	"seldon/internal/obs/trace"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

// Metric names exported by the service, next to the pipeline's
// stage.* names in the /metrics snapshot. No name restates another's.
const (
	// CounterRejected counts 429 backpressure rejections.
	CounterRejected = "http.rejected"
	// CounterErrors counts non-2xx responses other than 429.
	CounterErrors = "http.errors"
	// CounterResponses counts responses by route and status class:
	// CounterResponses + ".check.2xx", ".check.4xx", and so on.
	CounterResponses = "http.responses"
	// CounterTimeouts counts checks cancelled by the request deadline.
	CounterTimeouts = "http.timeouts"
	// TimerAnalyze times the analysis section of a /v1/check miss; the
	// 429 Retry-After hint reads its p50.
	TimerAnalyze = "http.check.analyze"
	// TimerRoutePrefix + route is the handler-level latency of each /v1/
	// endpoint (includes method checks and serialization, not just the
	// analysis section), and its count is the route's request count;
	// GaugeRouteInflightPrefix + route counts requests currently inside
	// that handler.
	TimerRoutePrefix         = "http.route.latency."
	GaugeRouteInflightPrefix = "http.route.inflight."
	// GaugeInflight is the number of checks currently holding a worker
	// slot; GaugeQueued counts requests admitted but waiting for one.
	GaugeInflight = "http.inflight"
	GaugeQueued   = "http.queued"
	// CounterReloads counts successful /v1/reload swaps (a /v1/feedback
	// generation is counted by feedback.resolves, not here);
	// CounterReloadErrors counts rejected ones (store unreadable or
	// invalid — the old specs kept serving). GaugeStoreSpecs is the
	// entry count of the store currently serving.
	CounterReloads      = "store.reloads"
	CounterReloadErrors = "store.reload.errors"
	GaugeStoreSpecs     = "store.specs"
)

// Config parametrizes a Server. The zero value of every field selects a
// production-safe default.
type Config struct {
	// Spec is the loaded specification store (required); Meta is its
	// provenance block, echoed by /v1/specs and /v1/healthz.
	Spec *spec.Spec
	Meta specio.Meta
	// StorePath, when non-empty, is the file Spec was loaded from;
	// POST /v1/reload re-reads it and swaps the result in atomically.
	// Without it the reload endpoint answers 409.
	StorePath string

	// Workers is the number of standing analysis goroutines, with
	// core.Config.Workers semantics: 0 selects GOMAXPROCS, 1 serializes.
	Workers int
	// QueueDepth bounds requests waiting for a worker slot; beyond
	// Workers+QueueDepth the server answers 429. 0 selects 2×Workers.
	QueueDepth int
	// RequestTimeout caps one check (queue wait + analysis); 0 selects
	// 30s. Exceeding it answers 503.
	RequestTimeout time.Duration
	// MaxBodyBytes caps the /v1/check request body; 0 selects 1 MiB.
	// Larger bodies answer 413.
	MaxBodyBytes int64
	// DrainTimeout bounds graceful shutdown; 0 selects 10s.
	DrainTimeout time.Duration

	// Session, when non-nil, is the incremental-learning session behind
	// POST /v1/feedback: operator verdicts pin (symbol, role) variables
	// as hard LP constraints, the session re-solves warm-started, and the
	// re-learned store is published as a new generation. Without it the
	// feedback endpoint answers 409. The server owns re-solve
	// serialization; the caller must not Relearn concurrently.
	Session *incr.Session

	// CheckCacheEntries and CheckCacheBytes bound the check-result cache
	// (entries resident / total encoded-response bytes). 0 selects the
	// checkcache defaults (8192 entries, 64 MiB); any negative value
	// disables the cache — and with it single-flight coalescing, which
	// shares its keying — so every request runs a full analysis.
	CheckCacheEntries int
	CheckCacheBytes   int64

	// Metrics receives request telemetry, and /v1/healthz reads its
	// counts back from it; nil selects a registry of the server's own.
	// Log may be nil.
	Metrics *obs.Registry
	Log     *obs.Logger
	// Tracer records one span tree per /v1/check request in a bounded
	// in-memory ring served from /debug/traces. Nil selects a fresh
	// ring of trace.DefaultCapacity traces — tracing is always on.
	Tracer *trace.Tracer

	// OnReady, when non-nil, is called once with the resolved listen
	// address after a successful bind (":0" callers learn the port).
	OnReady func(addr string)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.New()
	}
	if c.Tracer == nil {
		c.Tracer = trace.New(0)
	}
	return c
}

// storeState is one immutable generation of the serving specification.
// A reload replaces the whole value; nothing inside it is ever mutated
// after publication, so a snapshot taken under the read lock stays
// valid for the lifetime of the request using it.
type storeState struct {
	spec        *spec.Spec
	meta        specio.Meta
	fingerprint string
	// epoch names this generation in check-cache keys: the fingerprint
	// when one exists, a synthetic "gen-<n>" otherwise. Two generations
	// never share an epoch unless their stores are content-identical, in
	// which case sharing cached results is exactly right.
	epoch    string
	loadedAt time.Time
}

// Server answers taint-check traffic against a hot-swappable
// specification store; handlers hand cache misses to its standing
// analysis workers and wait for the result.
type Server struct {
	cfg   Config
	start time.Time

	// storeMu guards store, the active specification generation.
	storeMu sync.RWMutex
	store   storeState

	// jobs is unbuffered: a send completes only when a worker is idle.
	// scratch[i] is worker i's. admitted counts requests between
	// admission and completion, bounded by Workers+QueueDepth.
	jobs     chan checkJob
	scratch  []*core.Scratch
	admitted atomic.Int64
	inflight atomic.Int64

	// draining flips once Run begins shutdown; /v1/readyz answers 503
	// from then on so load balancers stop routing while in-flight checks
	// finish against the still-open listener.
	draining atomic.Bool

	// checkGate, when non-nil, blocks each check until the channel is
	// closed — test hook for saturation and drain tests.
	checkGate chan struct{}

	// cache holds encoded check results; nil when disabled. flights is
	// the single-flight table: one entry per cache key currently being
	// analyzed, so concurrent identical requests share one analysis.
	cache    *checkcache.Cache
	flightMu sync.Mutex
	flights  map[checkcache.Key]*flight
	// residencyMu orders the residency gauge writes after each Put, so
	// the last one reads the cache after every Put before it.
	residencyMu sync.Mutex

	// bufPool recycles the request-scoped byte buffers (body read,
	// response encode).
	bufPool sync.Pool

	// Feedback loop state (all unused without Config.Session). findings
	// maps finding IDs to the endpoint symbols a verdict pins, bounded
	// FIFO by findingOrder; feedbackMu serializes pin→relearn→publish.
	findingMu    sync.Mutex
	findings     map[string]feedbackTarget
	findingOrder []string
	feedbackMu   sync.Mutex
}

// flight is one in-progress analysis that concurrent identical requests
// attach to. The leader (or the worker running its job) fills res or err
// and closes done exactly once; followers select on done against their
// own deadlines. err propagates the leader's admission failure (429 or
// queue-wait timeout) so followers fail the same way instead of hanging.
type flight struct {
	done chan struct{}
	res  *checkResult
	err  error
}

// checkJob is one miss handed to a worker, with what its result feeds.
type checkJob struct {
	s                 *Server
	root              *trace.Span
	st                storeState
	name, source      string
	withTrace, dedupe bool
	key               checkcache.Key
	fl                *flight
}

// New builds a Server from cfg. cfg.Spec must be non-nil.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	fp, err := specio.FingerprintStore(cfg.Spec, cfg.Meta)
	if err != nil {
		fp = "" // unfingerprintable store still serves
	}
	epoch := fp
	if epoch == "" {
		epoch = "gen-0"
	}
	s := &Server{
		cfg:     cfg,
		start:   time.Now(),
		jobs:    make(chan checkJob),
		scratch: make([]*core.Scratch, cfg.Workers),
		store: storeState{
			spec: cfg.Spec, meta: cfg.Meta, fingerprint: fp, epoch: epoch, loadedAt: time.Now(),
		},
	}
	if cfg.CheckCacheEntries >= 0 && cfg.CheckCacheBytes >= 0 {
		s.cache = checkcache.New(cfg.CheckCacheEntries, cfg.CheckCacheBytes)
		s.flights = make(map[checkcache.Key]*flight)
	}
	if cfg.Session != nil {
		s.findings = make(map[string]feedbackTarget)
	}
	s.bufPool.New = func() any {
		b := make([]byte, 0, 4096)
		return &b
	}
	cfg.Metrics.Set(GaugeStoreSpecs, float64(cfg.Spec.Len()))
	for i := range s.scratch {
		s.scratch[i] = new(core.Scratch)
		go work(s.jobs, s.scratch[i])
	}
	runtime.SetFinalizer(s, func(s *Server) { close(s.jobs) })
	return s
}

// work is one standing analysis worker. No other goroutine touches sc,
// so a handler that times out never races its buffers, and a timed-out
// leader's analysis still finishes, is cached and resolves its flight.
// Between jobs it holds jobs, not the Server, so a Server nothing (its
// Handler included) references is collected; its finalizer closes jobs.
func work(jobs <-chan checkJob, sc *core.Scratch) {
	for j := range jobs {
		s := j.s
		s.inflight.Add(1)
		s.updateGauges()
		if s.checkGate != nil {
			<-s.checkGate
		}
		s.cfg.Metrics.Add(obs.CounterPoolGets, 1)
		res, err := s.check(j.root, j.st, j.name, j.source, j.withTrace, j.dedupe, sc)
		if dropped := sc.Reset(); dropped > 0 {
			s.cfg.Metrics.Add(obs.CounterPoolOversizeDrops, int64(dropped))
		}
		if err == nil && s.cache != nil {
			s.updateCacheMetrics(s.cache.Put(j.key, res.core))
		}
		s.resolveFlight(j.key, j.fl, res, err)
		s.inflight.Add(-1)
		s.admitted.Add(-1)
		s.updateGauges()
	}
}

func (s *Server) getBuf() *[]byte  { return s.bufPool.Get().(*[]byte) }
func (s *Server) putBuf(b *[]byte) { *b = (*b)[:0]; s.bufPool.Put(b) }

// currentStore snapshots the active specification generation. Callers
// hold the snapshot for their whole request so one check never sees two
// stores.
func (s *Server) currentStore() storeState {
	s.storeMu.RLock()
	st := s.store
	s.storeMu.RUnlock()
	return st
}

// swapStore publishes a new specification generation atomically. It
// counts nothing: a reload and a verdict each count their own.
func (s *Server) swapStore(st storeState) {
	s.storeMu.Lock()
	s.store = st
	s.storeMu.Unlock()
	s.cfg.Metrics.Set(GaugeStoreSpecs, float64(st.spec.Len()))
}

// Handler returns the full mux: the /v1/ endpoints plus the operator
// surface (/metrics, /debug/pprof/, /debug/traces).
func (s *Server) Handler() http.Handler {
	mux := obs.NewServeMux(s.cfg.Metrics)
	mux.Handle("/v1/check", s.route("check", s.handleCheck))
	mux.Handle("/v1/specs", s.route("specs", s.handleSpecs))
	mux.Handle("/v1/healthz", s.route("healthz", s.handleHealthz))
	mux.Handle("/v1/readyz", s.route("readyz", s.handleReadyz))
	mux.Handle("/v1/reload", s.route("reload", s.handleReload))
	mux.Handle("/v1/feedback", s.route("feedback", s.handleFeedback))
	mux.Handle("/debug/traces", trace.Handler(s.cfg.Tracer))
	return mux
}

// statusWriter captures the response status code for the per-route
// status-class counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// route wraps a handler with the uniform per-route telemetry: a
// handler-latency timer (whose count is the route's request count), an
// inflight gauge, and a status-class response counter. Individual
// handlers only record what is specific to them. The route's metric
// names are spelled once, here, when the route is registered — a request
// concatenates nothing.
func (s *Server) route(name string, h http.HandlerFunc) http.Handler {
	inflight := GaugeRouteInflightPrefix + name
	latency := TimerRoutePrefix + name
	var responses [6]string // by status class; [0] is unused
	for class := 1; class < len(responses); class++ {
		responses[class] = CounterResponses + "." + name + "." + strconv.Itoa(class) + "xx"
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.cfg.Metrics.GaugeAdd(inflight, 1)
		t := s.cfg.Metrics.Start(latency)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		t.End()
		s.cfg.Metrics.GaugeAdd(inflight, -1)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		if class := code / 100; class >= 1 && class < len(responses) {
			s.cfg.Metrics.Add(responses[class], 1)
		} else { // a status no handler here writes
			s.cfg.Metrics.Add(CounterResponses+"."+name+"."+strconv.Itoa(class)+"xx", 1)
		}
	})
}

// errBusy is returned by admit when the queue is full.
var errBusy = errors.New("service: at capacity")

// admit applies backpressure: it reserves a queue position, then waits
// for an idle worker to take j, or for the context. A taken job holds
// its position until the worker has finished it; a refused one gives it
// back here.
func (s *Server) admit(ctx context.Context, j checkJob) error {
	limit := int64(s.cfg.Workers + s.cfg.QueueDepth)
	if s.admitted.Add(1) > limit {
		s.admitted.Add(-1)
		return errBusy
	}
	s.updateGauges()
	select {
	case s.jobs <- j:
		return nil
	case <-ctx.Done():
		s.admitted.Add(-1)
		s.updateGauges()
		return ctx.Err()
	}
}

func (s *Server) updateGauges() {
	s.cfg.Metrics.Set(GaugeInflight, float64(s.inflight.Load()))
	s.cfg.Metrics.Set(GaugeQueued, float64(s.admitted.Load()-s.inflight.Load()))
}

// Start binds addr and serves in a background goroutine. The returned
// server's Addr is the resolved address (":0" callers discover the
// port), and the error channel reports a Serve failure after a
// successful bind; it is closed when the listener stops. Bind failures
// (busy port, bad address) are returned synchronously — callers fail
// fast at startup.
func (s *Server) Start(addr string) (*http.Server, <-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
		close(errc)
	}()
	st := s.currentStore()
	s.cfg.Log.Log("service.listen", "addr", srv.Addr,
		"workers", s.cfg.Workers, "queue", s.cfg.QueueDepth,
		"specs", st.spec.Len(), "store", st.fingerprint)
	if s.cfg.OnReady != nil {
		s.cfg.OnReady(srv.Addr)
	}
	return srv, errc, nil
}

// Run serves addr until ctx is cancelled (typically by SIGINT/SIGTERM
// via signal.NotifyContext), then shuts down gracefully in two phases:
// first /v1/readyz flips to 503 while the listener stays open — load
// balancers stop routing but in-flight and already-queued checks keep
// draining — then, once admitted work reaches zero (or DrainTimeout
// elapses), the listener closes. A listener error also ends the run.
func (s *Server) Run(ctx context.Context, addr string) error {
	srv, errc, err := s.Start(addr)
	if err != nil {
		return err
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	s.cfg.Log.Log("service.drain", "inflight", s.inflight.Load(), "admitted", s.admitted.Load())
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for s.admitted.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	drainCtx, cancel := context.WithDeadline(context.Background(), deadline.Add(time.Second))
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return err
	}
	s.cfg.Log.Log("service.stopped", "uptime", time.Since(s.start).Round(time.Millisecond))
	return nil
}
