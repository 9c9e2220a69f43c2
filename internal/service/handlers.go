package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"seldon/internal/checkcache"
	"seldon/internal/core"
	"seldon/internal/fpcache"
	"seldon/internal/obs"
	"seldon/internal/obs/trace"
	"seldon/internal/propgraph"
	"seldon/internal/specio"
	"seldon/internal/taint"
)

// Finding is one taint report in a /v1/check response. ID is a
// deterministic content hash of the finding (file, endpoints, positions,
// category) — stable across requests, cache paths, and restarts — and
// is the handle POST /v1/feedback accepts verdicts against.
type Finding struct {
	ID        string `json:"id"`
	File      string `json:"file"`
	Source    string `json:"source"`
	Sink      string `json:"sink"`
	SourcePos string `json:"source_pos"`
	SinkPos   string `json:"sink_pos"`
	Category  string `json:"category"`
	// Trace is the witness flow rendered as text, present with ?trace=1.
	Trace string `json:"trace,omitempty"`
}

// CheckResponse is the /v1/check response body. The wire bytes are not
// produced by marshaling this struct: the cache-independent prefix
// (checkCore) is encoded once per analysis, and elapsed_ms plus
// trace_id are spliced on per request — the field order here documents
// (and tests pin) that the splice matches a direct marshal.
type CheckResponse struct {
	File       string         `json:"file"`
	Findings   []Finding      `json:"findings"`
	Total      int            `json:"total"`
	ByCategory map[string]int `json:"by_category,omitempty"`
	// ParseError carries a recovered parse failure; analysis still ran
	// over the recovered AST (same contract as the CLIs).
	ParseError string  `json:"parse_error,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	// TraceID identifies this request's span tree in /debug/traces
	// (also returned in the X-Trace-Id response header).
	TraceID string `json:"trace_id,omitempty"`
}

// checkCore is the cacheable prefix of a CheckResponse: everything
// determined by (store generation, filename, options, body) and nothing
// that varies per request. Its encoding ends in '}' and respondCheck
// splices the per-request suffix before that byte, so every 200 —
// cold, cached, or coalesced — is byte-identical modulo elapsed_ms and
// trace_id.
type checkCore struct {
	File       string         `json:"file"`
	Findings   []Finding      `json:"findings"`
	Total      int            `json:"total"`
	ByCategory map[string]int `json:"by_category,omitempty"`
	ParseError string         `json:"parse_error,omitempty"`
}

// checkResult is one analysis outcome: the encoded checkCore plus the
// finding count for logs.
type checkResult struct {
	core  []byte
	total int
}

// optsKey encodes the (trace, dedupe) option pair for cache keys,
// indexed by trace<<0 | dedupe<<1.
var optsKey = [4]string{"", "t", "d", "td"}

// handleCheck implements POST /v1/check: the body is one Python source
// file; the response lists unsanitized source→sink flows under the
// loaded specification. Query parameters: filename (report label,
// default "request.py"), trace=1 (include witness traces), dedupe=1
// (collapse findings sharing source and sink representations).
//
// Every request runs under a span tree: admission (body read) → queue
// (wait for a worker slot) → parse → dataflow → taint → encode. The
// trace ID is returned in X-Trace-Id and the response body, a W3C
// traceparent header is honored inbound and emitted outbound, and the
// finished tree is retrievable from /debug/traces?trace_id=<id>.
//
// Repeated work short-circuits before admission. A cache hit (same
// body, filename, options, and store generation) skips the queue and
// the analysis entirely; a concurrent identical request joins the
// in-flight leader's analysis as a follower (span attr coalesced=true)
// without taking a worker slot.
//
// The handler does its work in the order it is needed: read, key, look
// up. Everything a request needs only because it may wait — the
// deadline context and its timer, the flight table — is set up after
// the lookup has missed, so a hit, which never blocks, pays for none of
// it. A follower waits and keeps its own deadline.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, "check", http.StatusMethodNotAllowed, "POST a Python source file")
		return
	}
	root := s.cfg.Tracer.StartRootFrom("http.check", r.Header.Get("Traceparent"))
	defer root.End()
	// One backing array for both values instead of Header.Set's one each.
	ids := []string{root.TraceID(), root.Traceparent()}
	w.Header()["X-Trace-Id"], w.Header()["Traceparent"] = ids[:1:1], ids[1:]
	if s.draining.Load() {
		s.fail(w, "check", http.StatusServiceUnavailable, "server is draining")
		return
	}
	span := s.cfg.Metrics.Start(TimerCheck)

	adm := root.StartChild("admission")
	bufp := s.getBuf()
	defer s.putBuf(bufp)
	body, err := readAllInto(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), (*bufp)[:0])
	*bufp = body[:0] // hand the grown buffer back to the pool on return
	adm.SetAttr("body_bytes", len(body))
	adm.End()
	if err != nil {
		span.End()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, "check", http.StatusRequestEntityTooLarge,
				"body exceeds "+strconv.FormatInt(s.cfg.MaxBodyBytes, 10)+" bytes")
			return
		}
		s.fail(w, "check", http.StatusBadRequest, "reading body: "+err.Error())
		return
	}

	name, withTrace, dedupe := "request.py", false, false
	if r.URL.RawQuery != "" {
		query := r.URL.Query()
		if n := query.Get("filename"); n != "" {
			name = n
		}
		withTrace = query.Get("trace") == "1"
		dedupe = query.Get("dedupe") == "1"
	}
	root.SetAttr("file", name)

	// One store snapshot per request, taken before the cache key is
	// derived: the key's generation and the analysis input can never
	// disagree, even against a concurrent reload.
	st := s.currentStore()
	root.SetAttr("store", st.fingerprint)

	var key checkcache.Key
	if s.cache != nil {
		opts := optsKey[b2i(withTrace)|b2i(dedupe)<<1]
		key = checkcache.KeyOfBytes([]string{fpcache.AnalyzerVersion, st.epoch, name, opts}, body)
		if val, ok := s.cache.Get(key); ok {
			s.cfg.Metrics.Add(obs.CounterCheckCacheHits, 1)
			root.SetAttr("cache", "hit")
			s.reindexFindings(val)
			s.respondCheck(w, root, span, val)
			if s.cfg.Log != nil { // the arguments are built only for a logger that prints them
				s.cfg.Log.Log("check.done", "file", name, "cache", "hit", "trace", root.TraceID())
			}
			return
		}
		s.cfg.Metrics.Add(obs.CounterCheckCacheMisses, 1)
	}

	// A miss: from here on the request may wait — for a leader, a worker
	// slot or the analysis — so it gets its deadline.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	var fl *flight
	if s.cache != nil {
		s.flightMu.Lock()
		if g, ok := s.flights[key]; ok {
			s.flightMu.Unlock()
			s.followFlight(w, ctx, root, span, name, g)
			return
		}
		fl = &flight{done: make(chan struct{})}
		s.flights[key] = fl
		s.flightMu.Unlock()
	} else {
		fl = &flight{done: make(chan struct{})}
	}

	queue := root.StartChild("queue")
	release, err := s.admit(ctx)
	queue.End()
	if err != nil {
		span.End()
		s.resolveFlight(key, fl, nil, err)
		if errors.Is(err, errBusy) {
			s.cfg.Metrics.Add(CounterRejected, 1)
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			s.fail(w, "check", http.StatusTooManyRequests, "server at capacity, retry later")
			return
		}
		s.timeoutResponse(w, err)
		return
	}

	// Run the pipeline on the worker slot; the handler goroutine only
	// waits for it or the deadline. On timeout the analysis goroutine
	// finishes on its own, releases the slot, and still resolves the
	// flight — the pool bound stays honest even when clients have long
	// gone, and followers are never stranded by their leader's client.
	// The body is copied out first: the pooled read buffer is returned
	// when this handler exits, which may precede the analysis.
	source := string(body)
	go func() {
		defer release()
		if s.checkGate != nil {
			<-s.checkGate
		}
		sc := s.getScratch()
		res, err := s.check(root, st, name, source, withTrace, dedupe, sc)
		s.putScratch(sc)
		if err == nil {
			s.cache.Put(key, res.core) // nil-safe when the cache is off
			s.updateCacheMetrics()
		}
		s.resolveFlight(key, fl, res, err)
	}()

	select {
	case <-fl.done:
		if fl.err != nil {
			span.End()
			s.fail(w, "check", http.StatusInternalServerError, "encoding response: "+fl.err.Error())
			return
		}
		s.respondCheck(w, root, span, fl.res.core)
		s.cfg.Log.Log("check.done", "file", name, "findings", fl.res.total,
			"trace", root.TraceID())
	case <-ctx.Done():
		s.cfg.Metrics.Add(CounterTimeouts, 1)
		span.End()
		s.timeoutResponse(w, ctx.Err())
	}
}

// followFlight rides an in-flight identical analysis: the follower
// holds no worker slot, keeps its own deadline, and fails exactly like
// its leader when the leader could not be admitted.
func (s *Server) followFlight(w http.ResponseWriter, ctx context.Context,
	root *trace.Span, span obs.Span, name string, f *flight) {
	s.coalesced.Add(1)
	s.cfg.Metrics.Add(obs.CounterCheckCoalesced, 1)
	root.SetAttr("coalesced", true)
	select {
	case <-f.done:
		if f.err != nil {
			span.End()
			switch {
			case errors.Is(f.err, errBusy):
				s.cfg.Metrics.Add(CounterRejected, 1)
				w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
				s.fail(w, "check", http.StatusTooManyRequests, "server at capacity, retry later")
			default:
				s.timeoutResponse(w, f.err)
			}
			return
		}
		s.respondCheck(w, root, span, f.res.core)
		s.cfg.Log.Log("check.done", "file", name, "findings", f.res.total,
			"cache", "coalesced", "trace", root.TraceID())
	case <-ctx.Done():
		s.cfg.Metrics.Add(CounterTimeouts, 1)
		span.End()
		s.timeoutResponse(w, ctx.Err())
	}
}

// resolveFlight publishes the outcome and retires the flight. The cache
// Put (in the caller) happens first, so a request arriving between the
// delete and a later identical one either joined this flight or finds
// the cached value — never a gap where both miss.
func (s *Server) resolveFlight(key checkcache.Key, fl *flight, res *checkResult, err error) {
	fl.res, fl.err = res, err
	if s.cache != nil {
		s.flightMu.Lock()
		if s.flights[key] == fl {
			delete(s.flights, key)
		}
		s.flightMu.Unlock()
	}
	close(fl.done)
}

// respondCheck writes one 200: the cached core encoding with
// `,"elapsed_ms":…,"trace_id":"…"` spliced before the closing brace —
// byte-for-byte what marshaling the full CheckResponse would produce.
func (s *Server) respondCheck(w http.ResponseWriter, root *trace.Span, span obs.Span, core []byte) {
	enc := root.StartChild("encode")
	elapsed := float64(span.End()) / float64(time.Millisecond)
	bufp := s.getBuf()
	b := append((*bufp)[:0], core[:len(core)-1]...)
	b = append(b, `,"elapsed_ms":`...)
	b = appendJSONFloat(b, elapsed)
	b = append(b, `,"trace_id":"`...)
	b = append(b, root.TraceID()...)
	b = append(b, '"', '}', '\n')
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	*bufp = b
	s.putBuf(bufp)
	enc.End()
}

// jsonContentType is the Content-Type value every 200 of /v1/check
// shares. Nothing writes through a header's value slice: Set replaces
// it, and Add appends to this one's full capacity, which copies.
var jsonContentType = []string{"application/json"}

// updateCacheMetrics refreshes the residency gauges and rolls forward
// the eviction counter from the cache's cumulative snapshot.
func (s *Server) updateCacheMetrics() {
	cs := s.cache.Stats()
	s.cfg.Metrics.Set(obs.GaugeCheckCacheEntries, float64(cs.Entries))
	s.cfg.Metrics.Set(obs.GaugeCheckCacheBytes, float64(cs.Bytes))
	if d := cs.Evictions - s.evictionsPublished.Swap(cs.Evictions); d > 0 {
		s.cfg.Metrics.Add(obs.CounterCheckCacheEvictions, d)
	}
}

// readAllInto is io.ReadAll into a caller-provided buffer, reusing its
// capacity and returning the (possibly grown) slice.
func readAllInto(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// appendJSONFloat appends f exactly as encoding/json renders a float64
// (ES6 number-to-string: %f in the mid range, %e with a trimmed
// exponent outside it), keeping spliced responses byte-identical to a
// direct marshal.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// retryAfterSeconds derives the Retry-After hint for 429 responses
// from observed load instead of a constant: the p50 analysis service
// time times the requests currently in the system per worker — roughly
// how long until a queue slot frees up — rounded up and clamped to
// [1, 30] seconds. The estimate uses TimerAnalyze, not TimerCheck:
// end-to-end check latency already includes queue wait, and scaling it
// by the queue length would double-count queueing delay. Before any
// latency sample exists it falls back to 1.
func (s *Server) retryAfterSeconds() int {
	ts, ok := s.cfg.Metrics.Timer(TimerAnalyze)
	if !ok || ts.Count == 0 || ts.P50 <= 0 {
		return 1
	}
	wait := ts.P50 * float64(s.admitted.Load()) / float64(s.cfg.Workers)
	secs := int(math.Ceil(wait))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// check runs the per-request analysis: parse + dataflow via the shared
// corpus front-end (Workers: 1 — request-level parallelism comes from
// the handler pool), union, then the taint analyzer. It is the same
// code path `seldon check` runs, so findings match the CLI byte for
// byte on the same input. The caller passes the store snapshot it
// admitted with (so the cache key and the analysis agree) and a pooled
// scratch the sequential front-end threads through parse and dataflow.
//
// The front-end reports parse and dataflow time only after the fact,
// so those stages become retroactive child spans (AddChildAt) tiling
// the front-end wall; taint runs under a live child span.
func (s *Server) check(root *trace.Span, st storeState, name, source string,
	withTrace, dedupe bool, sc *core.Scratch) (*checkResult, error) {
	span := s.cfg.Metrics.Start(TimerAnalyze)
	feStart := time.Now()
	fe := core.AnalyzeFiles(map[string]string{name: source},
		core.Config{Workers: 1, Metrics: s.cfg.Metrics, Scratch: sc})
	root.AddChildAt("parse", feStart, fe.ParseTotal)
	root.AddChildAt("dataflow", feStart.Add(fe.ParseTotal), fe.AnalyzeTotal)
	ts := root.StartChild("taint")
	union := propgraph.Union(fe.Graphs...)
	reports := taint.Analyze(union, st.spec)
	if dedupe {
		reports = taint.Dedupe(reports)
	}
	ts.SetAttr("findings", len(reports))
	ts.End()
	span.End()

	cc := &checkCore{File: name, Findings: []Finding{}}
	if len(fe.ParseErrs) > 0 {
		cc.ParseError = fe.ParseErrs[0].Error()
	}
	for i := range reports {
		rep := &reports[i]
		f := Finding{
			File:      rep.File,
			Source:    rep.SourceRep,
			Sink:      rep.SinkRep,
			SourcePos: rep.SourcePos.String(),
			SinkPos:   rep.SinkPos.String(),
			Category:  string(rep.Category),
		}
		f.ID = findingID(&f)
		if withTrace {
			f.Trace = rep.Trace(union)
		}
		s.recordFinding(&f)
		cc.Findings = append(cc.Findings, f)
	}
	sum := taint.Summarize(reports)
	cc.Total = sum.Total
	if sum.Total > 0 {
		cc.ByCategory = make(map[string]int, len(sum.ByCategory))
		for c, n := range sum.ByCategory {
			cc.ByCategory[string(c)] = n
		}
	}
	s.cfg.Metrics.Add(obs.CounterTaintReports, int64(sum.Total))
	data, err := json.Marshal(cc)
	if err != nil {
		return nil, err
	}
	return &checkResult{core: data, total: sum.Total}, nil
}

// SpecEntry is one role assignment in a /v1/specs response.
type SpecEntry struct {
	Role string `json:"role"`
	Rep  string `json:"rep"`
	Args []int  `json:"args,omitempty"`
}

// SpecsResponse is the /v1/specs response body. Epoch names the store
// generation the entries came from (the key /v1/check responses are
// cached under); it changes on every effective reload and on every
// feedback re-solve.
type SpecsResponse struct {
	Schema    int         `json:"schema"`
	Epoch     string      `json:"epoch"`
	Meta      specio.Meta `json:"meta"`
	Count     int         `json:"count"`
	Entries   []SpecEntry `json:"entries"`
	Blacklist []string    `json:"blacklist,omitempty"`
}

// handleSpecs implements GET /v1/specs. Query parameters: role
// (source|sanitizer|sink), q (substring of the representation), limit.
func (s *Server) handleSpecs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.fail(w, "specs", http.StatusMethodNotAllowed, "GET only")
		return
	}

	roleFilter := r.URL.Query().Get("role")
	if roleFilter != "" && roleFilter != "source" && roleFilter != "sanitizer" && roleFilter != "sink" {
		s.fail(w, "specs", http.StatusBadRequest, "role must be source, sanitizer, or sink")
		return
	}
	q := r.URL.Query().Get("q")
	limit := 0
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			s.fail(w, "specs", http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}

	st := s.currentStore()
	resp := &SpecsResponse{Schema: specio.SchemaVersion, Epoch: st.epoch, Meta: st.meta, Entries: []SpecEntry{}}
	add := func(role string, reps []string) {
		if roleFilter != "" && roleFilter != role {
			return
		}
		for _, rep := range reps {
			if q != "" && !strings.Contains(rep, q) {
				continue
			}
			e := SpecEntry{Role: role, Rep: rep}
			if role == "sink" {
				e.Args = st.spec.SinkArgsOf(rep)
			}
			resp.Entries = append(resp.Entries, e)
		}
	}
	add("source", st.spec.Sources)
	add("sanitizer", st.spec.Sanitizers)
	add("sink", st.spec.Sinks)
	resp.Count = len(resp.Entries)
	if limit > 0 && len(resp.Entries) > limit {
		resp.Entries = resp.Entries[:limit]
	}
	if roleFilter == "" && q == "" {
		for _, p := range st.spec.Blacklist {
			resp.Blacklist = append(resp.Blacklist, p.String())
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// HealthResponse is the /v1/healthz response body: liveness plus the
// identity of the store currently serving — its fingerprint, schema,
// and the seed-vs-learned split recorded in its provenance.
type HealthResponse struct {
	Status string `json:"status"`
	Specs  int    `json:"specs"`
	// StoreFingerprint identifies the active store generation (changes
	// on every effective reload); Epoch is the generation name check
	// results are cached under (fingerprint-derived, advances on reloads
	// and feedback re-solves); Schema is the store schema version.
	StoreFingerprint string `json:"store_fingerprint"`
	Epoch            string `json:"epoch"`
	Schema           int    `json:"schema"`
	// SeedEntries/LearnedEntries split Specs by provenance, as recorded
	// in the store's metadata (0/0 for stores without provenance).
	SeedEntries    int     `json:"seed_entries"`
	LearnedEntries int     `json:"learned_entries"`
	Reloads        int64   `json:"reloads"`
	Inflight       int64   `json:"inflight"`
	UptimeS        float64 `json:"uptime_s"`
	// CheckCache summarizes the check-result cache; absent when the
	// cache is disabled. Pool reports scratch-pool traffic. Feedback
	// summarizes the continuous-learning loop; absent without a session.
	CheckCache *CheckCacheHealth `json:"check_cache,omitempty"`
	Pool       PoolHealth        `json:"pool"`
	Feedback   *FeedbackHealth   `json:"feedback,omitempty"`
}

// FeedbackHealth is the /v1/healthz view of the feedback loop: verdict
// counts by direction, the number of (symbol, role) variables currently
// pinned by operator verdicts, and how many incremental re-solves
// feedback has triggered.
type FeedbackHealth struct {
	Accepted   int64 `json:"accepted"`
	Rejected   int64 `json:"rejected"`
	PinnedVars int   `json:"pinned_vars"`
	Resolves   int64 `json:"resolves"`
}

// CheckCacheHealth is the /v1/healthz view of the check-result cache
// and the single-flight coalescer.
type CheckCacheHealth struct {
	Entries   int64   `json:"entries"`
	Bytes     int64   `json:"bytes"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
	Coalesced int64   `json:"coalesced"`
}

// PoolHealth is the /v1/healthz view of the scratch pool: Gets counts
// acquisitions, News the subset that allocated fresh.
type PoolHealth struct {
	Gets int64 `json:"gets"`
	News int64 `json:"news"`
}

// handleHealthz implements GET /v1/healthz: liveness — answers 200 as
// long as the process serves, draining or not. Readiness (should this
// instance receive new traffic?) is /v1/readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.currentStore()
	resp := &HealthResponse{
		Status:           "ok",
		Specs:            st.spec.Len(),
		StoreFingerprint: st.fingerprint,
		Epoch:            st.epoch,
		Schema:           specio.SchemaVersion,
		SeedEntries:      st.meta.SeedEntries,
		LearnedEntries:   st.meta.LearnedEntries,
		Reloads:          s.reloads.Load(),
		Inflight:         s.inflight.Load(),
		UptimeS:          time.Since(s.start).Seconds(),
		Pool:             PoolHealth{Gets: s.poolGets.Load(), News: s.poolNews.Load()},
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		resp.CheckCache = &CheckCacheHealth{
			Entries:   cs.Entries,
			Bytes:     cs.Bytes,
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Evictions: cs.Evictions,
			HitRate:   cs.HitRate(),
			Coalesced: s.coalesced.Load(),
		}
	}
	if s.cfg.Session != nil {
		resp.Feedback = &FeedbackHealth{
			Accepted:   s.feedbackAccepted.Load(),
			Rejected:   s.feedbackRejected.Load(),
			PinnedVars: s.cfg.Session.Pins(),
			Resolves:   s.feedbackResolves.Load(),
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ReadyResponse is the /v1/readyz response body.
type ReadyResponse struct {
	Ready    bool   `json:"ready"`
	Reason   string `json:"reason,omitempty"`
	Inflight int64  `json:"inflight"`
}

// handleReadyz implements GET /v1/readyz: readiness for load balancers
// and deploy orchestration. It answers 503 the moment Run starts
// draining (while /v1/healthz still answers 200 against the open
// listener) and before a specification store is loaded, so rolling
// restarts stop routing new traffic without killing in-flight checks.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.fail(w, "readyz", http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.currentStore()
	resp := &ReadyResponse{Ready: true, Inflight: s.inflight.Load()}
	code := http.StatusOK
	switch {
	case s.draining.Load():
		resp.Ready, resp.Reason = false, "draining"
		code = http.StatusServiceUnavailable
	case st.spec == nil:
		resp.Ready, resp.Reason = false, "no specification store loaded"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, resp)
}

// ReloadResponse is the /v1/reload response body.
type ReloadResponse struct {
	Status           string `json:"status"` // "reloaded" or "unchanged"
	StoreFingerprint string `json:"store_fingerprint"`
	Specs            int    `json:"specs"`
	SeedEntries      int    `json:"seed_entries"`
	LearnedEntries   int    `json:"learned_entries"`
}

// handleReload implements POST /v1/reload: re-read Config.StorePath,
// validate it (schema check, unknown-field rejection — specio.Load),
// and swap the new store in under the write lock. In-flight checks keep
// the snapshot they admitted with; a load or validation failure answers
// 422 and leaves the previous store serving untouched.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, "reload", http.StatusMethodNotAllowed, "POST to reload the spec store")
		return
	}

	if s.cfg.StorePath == "" {
		s.fail(w, "reload", http.StatusConflict,
			"server was not started from a store file; nothing to reload")
		return
	}
	sp, meta, err := specio.Load(s.cfg.StorePath)
	if err != nil {
		s.cfg.Metrics.Add(CounterReloadErrors, 1)
		s.fail(w, "reload", http.StatusUnprocessableEntity,
			"store rejected, previous specs still serving: "+err.Error())
		return
	}
	fp, err := specio.FingerprintStore(sp, meta)
	if err != nil {
		s.cfg.Metrics.Add(CounterReloadErrors, 1)
		s.fail(w, "reload", http.StatusUnprocessableEntity,
			"store rejected, previous specs still serving: "+err.Error())
		return
	}

	status := "reloaded"
	if prev := s.currentStore(); prev.fingerprint == fp {
		status = "unchanged" // still republished: loadedAt advances
	}
	// The epoch is the fingerprint (always non-empty here: an
	// unfingerprintable store was rejected above), so a reload to a
	// content-identical store keeps its cached check results addressable
	// and any other store starts a fresh generation.
	s.swapStore(storeState{spec: sp, meta: meta, fingerprint: fp, epoch: fp, loadedAt: time.Now()})
	s.cfg.Log.Log("store.reload", "path", s.cfg.StorePath,
		"fingerprint", fp, "specs", sp.Len(), "status", status)
	s.writeJSON(w, http.StatusOK, &ReloadResponse{
		Status:           status,
		StoreFingerprint: fp,
		Specs:            sp.Len(),
		SeedEntries:      meta.SeedEntries,
		LearnedEntries:   meta.LearnedEntries,
	})
}

// errorResponse is the uniform error body. TraceID is present on
// routes that run under a trace (check), so a failed request can be
// looked up in /debug/traces.
type errorResponse struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

func (s *Server) timeoutResponse(w http.ResponseWriter, err error) {
	s.fail(w, "check", http.StatusServiceUnavailable, "check did not finish in time: "+err.Error())
}

func (s *Server) fail(w http.ResponseWriter, route string, code int, msg string) {
	if code != http.StatusTooManyRequests {
		s.cfg.Metrics.Add(CounterErrors, 1)
	}
	tid := w.Header().Get("X-Trace-Id")
	if tid != "" {
		s.cfg.Log.Log("http.error", "route", route, "code", code, "err", msg, "trace", tid)
	} else {
		s.cfg.Log.Log("http.error", "route", route, "code", code, "err", msg)
	}
	s.writeJSON(w, code, &errorResponse{Error: msg, TraceID: tid})
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}
