package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"seldon/internal/checkcache"
	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/service"
	"seldon/internal/spec"
	"seldon/internal/specio"
	"seldon/internal/taint"
)

const (
	hotBodies   = 256 // check_dup's working set of repeated bodies
	hotShare    = 0.8 // share of check_dup requests drawn from it
	zipfS       = 1.1 // skew of that draw
	sampleEvery = 64  // every n-th unique body is kept and re-checked
	checkName   = "request.py"
	checkTarget = "/v1/check"
)

// bodyWeights is the request-size mix: a body is this many corpus files
// concatenated, drawn with these weights (sizes ≈0.9–14 KB). The median
// request sits in the middle of the two-file class, not on a boundary
// between classes.
var bodyWeights = []struct{ files, weight int }{{1, 4}, {2, 3}, {4, 2}, {8, 1}, {16, 1}}

// hotSizes is the same mix laid out by popularity rank, repeating: the
// Zipf draw gives the top few hot bodies most of the hits, so if their
// sizes were drawn per seed the cost of the median hit (hashing the body)
// would move by 25 % from one seed to the next.
var hotSizes = []int{1, 2, 4, 1, 2, 8, 1, 2, 4, 1, 16}

// checkLoad is the serving path: P closed-loop clients POST Python
// source to /v1/check through the server's handler and wait for the
// verdict, as CI jobs and editor plugins do. With dup false every body
// is new (check_miss: lex, parse, dataflow, taint and a cache insert per
// request); with dup true 80 % of requests repeat one of 256 hot bodies
// (check_dup: the cache-hit path does most of the work). The pair shows
// a cache gain that taxes misses, or the reverse.
//
// Requests go through Handler().ServeHTTP rather than a socket: that
// covers everything Seldon owns — routing, admission, trace ring, cache,
// coalescing, analysis, encoding — and leaves out kernel and net/http
// connection handling, which on a small shared box measures the
// scheduler.
type checkLoad struct {
	cfg config
	dup bool

	corp    *corpus.Corpus
	sources []string
	store   *spec.Spec
	meta    specio.Meta
	handler http.Handler // the server under test: seldond's configuration, check cache on
	ref     http.Handler // the same store with the cache off: the reference answers
	hot     [][]byte
	hotRef  [][]byte
}

func (w *checkLoad) setup() error {
	w.corp = corpus.Generate(corpus.Config{Files: w.cfg.store, Seed: w.cfg.seed})
	for _, f := range w.corp.Files {
		w.sources = append(w.sources, f.Source)
	}
	seed := corpus.ExperimentSeed()
	res := core.LearnFromSources(w.corp.FileMap(), seed, core.Config{Workers: w.cfg.p})
	w.store = res.LearnedSpec(seed)
	w.meta = specio.Meta{CorpusFiles: len(w.corp.Files), Events: len(res.Graph.Events),
		SeedEntries: seed.Len(), LearnedEntries: w.store.Len() - seed.Len(), Generator: "seldon-bench"}
	w.handler = w.newServer(0)
	w.ref = w.newServer(-1)

	if w.dup {
		gen := newBodyGen(w.sources, w.cfg.seed, "hot")
		probe := newClient(w, 0)
		for i := 0; i < hotBodies; i++ {
			body := append([]byte(nil), gen.nextOf(hotSizes[i%len(hotSizes)])...)
			status, resp := probe.post(w.ref, body)
			if status != http.StatusOK {
				return fmt.Errorf("reference server answered %d for hot body %d", status, i)
			}
			w.hot = append(w.hot, body)
			w.hotRef = append(w.hotRef, append([]byte(nil), stableCore(resp)...))
		}
	}
	return nil
}

// newServer builds a server the way cmd/seldond does (metrics registry
// on, default limits); cacheEntries < 0 turns the check cache off.
func (w *checkLoad) newServer(cacheEntries int) http.Handler {
	return service.New(service.Config{Spec: w.store, Meta: w.meta, Metrics: obs.New(),
		CheckCacheEntries: cacheEntries}).Handler()
}

// bodyGen makes unique request bodies: a comment line naming the
// generator and a counter, then corpus files drawn by bodyWeights.
type bodyGen struct {
	sources []string
	rng     *rand.Rand
	tag     string
	seq     uint64
	buf     []byte
	total   int
}

func newBodyGen(sources []string, seed int64, tag string) *bodyGen {
	g := &bodyGen{sources: sources, tag: tag}
	// The tag goes into the seed so every client draws its own stream.
	var h int64
	for _, c := range tag {
		h = h*131 + int64(c)
	}
	g.rng = rand.New(rand.NewSource(seed*1_000_003 + h))
	for _, bw := range bodyWeights {
		g.total += bw.weight
	}
	return g
}

// next returns a body no earlier call returned, of a size drawn by
// bodyWeights. The slice is reused by the following call.
func (g *bodyGen) next() []byte {
	pick, files := g.rng.Intn(g.total), 1
	for _, bw := range bodyWeights {
		if pick < bw.weight {
			files = bw.files
			break
		}
		pick -= bw.weight
	}
	return g.nextOf(files)
}

// nextOf is next with the number of corpus files given.
func (g *bodyGen) nextOf(files int) []byte {
	g.seq++
	b := append(g.buf[:0], "# "...)
	b = append(b, g.tag...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, g.seq, 10)
	b = append(b, '\n')
	for i := 0; i < files; i++ {
		b = append(b, g.sources[g.rng.Intn(len(g.sources))]...)
	}
	g.buf = b
	return b
}

// bodyReader is a request body that can be pointed at new bytes without
// allocating.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// respWriter is the least an http.ResponseWriter can be: it keeps the
// status and the body bytes and reuses both between requests.
type respWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *respWriter) Header() http.Header { return w.header }
func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// sampledCheck is a unique body kept with the answer the server under
// test gave, to be compared with the reference server's after the run.
type sampledCheck struct{ body, core []byte }

// client is one closed-loop caller. It owns one request, one body
// reader and one response writer for its whole life, so the loop itself
// allocates nothing per request, and it records latencies in nanoseconds
// into a slice sized before the window opens.
type client struct {
	w    *checkLoad
	gen  *bodyGen
	rng  *rand.Rand
	zipf *rand.Zipf
	req  *http.Request
	body bodyReader
	rw   respWriter

	lat      sample
	done     []int64   // when each timed request completed, in ns since epoch
	epoch    time.Time // the start of the measured window
	sent     int
	uniques  int
	rejected int
	failed   []string
	nfailed  int
	sampled  []sampledCheck
}

func newClient(w *checkLoad, id int) *client {
	c := &client{w: w, gen: newBodyGen(w.sources, w.cfg.seed, "client"+strconv.Itoa(id)),
		rng: rand.New(rand.NewSource(w.cfg.seed*7919 + int64(id))),
		rw:  respWriter{header: make(http.Header)}}
	c.zipf = rand.NewZipf(c.rng, zipfS, 1, hotBodies-1)
	c.req = &http.Request{Method: http.MethodPost, URL: &url.URL{Path: checkTarget},
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Host: "bench", Body: &c.body}
	return c
}

// post sends one body and returns the status and the response bytes,
// which the next post overwrites.
func (c *client) post(h http.Handler, body []byte) (int, []byte) {
	c.body.Reset(body)
	c.req.ContentLength = int64(len(body))
	c.rw.status, c.rw.body = 0, c.rw.body[:0]
	h.ServeHTTP(&c.rw, c.req)
	return c.rw.status, c.rw.body
}

// nextBody draws the next request: a hot body (index ≥ 0) or a new one.
func (c *client) nextBody() ([]byte, int) {
	if c.w.dup && c.rng.Float64() < hotShare {
		i := int(c.zipf.Uint64())
		return c.w.hot[i], i
	}
	return c.gen.next(), -1
}

func (c *client) fail(format string, args ...any) {
	c.nfailed++
	if len(c.failed) < 3 {
		c.failed = append(c.failed, fmt.Sprintf(format, args...))
	}
}

// one sends one request, times it when record is set, and checks the
// answer: 200, and for a hot body byte-identical (apart from elapsed_ms
// and trace_id) to the reference server's.
func (c *client) one(h http.Handler, record bool) {
	body, hot := c.nextBody()
	c.sent++
	t0 := time.Now()
	status, resp := c.post(h, body)
	t1 := time.Now()
	if record {
		c.lat = append(c.lat, int64(t1.Sub(t0)))
		c.done = append(c.done, int64(t1.Sub(c.epoch)))
	}
	switch {
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		c.rejected++
		c.fail("status %d", status)
	case status != http.StatusOK:
		c.fail("status %d: %s", status, resp)
	case hot >= 0:
		if !bytes.Equal(stableCore(resp), c.w.hotRef[hot]) {
			c.fail("hot body %d: answer differs from the cache-off server's", hot)
		}
	default:
		c.uniques++
		if c.uniques%sampleEvery == 0 {
			c.sampled = append(c.sampled, sampledCheck{append([]byte(nil), body...),
				append([]byte(nil), stableCore(resp)...)})
		}
	}
}

// stableCore cuts the per-request suffix (elapsed_ms, trace_id) off a
// /v1/check response; what is left is a pure function of store and body.
func stableCore(resp []byte) []byte {
	if i := bytes.LastIndex(resp, []byte(`,"elapsed_ms":`)); i >= 0 {
		return resp[:i]
	}
	return resp
}

// drive runs the clients concurrently, each until stop says so.
func drive(clients []*client, h http.Handler, record bool, stop func(sent int) bool) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sent := 0; !stop(sent); sent++ {
				c.one(h, record)
			}
		}()
	}
	wg.Wait()
}

func until(deadline time.Time) func(int) bool {
	return func(int) bool { return !time.Now().Before(deadline) }
}

func (w *checkLoad) clients() []*client {
	cs := make([]*client, w.cfg.p)
	for i := range cs {
		cs[i] = newClient(w, i+1)
		cs[i].lat = make(sample, 0, 1<<20)
		cs[i].done = make([]int64, 0, 1<<20)
	}
	return cs
}

// collect folds the clients' counts and failures into the result and,
// on the reference server, re-checks every sampled unique body.
func (w *checkLoad) collect(r *result, clients []*client) (all sample, rejected int) {
	probe := newClient(w, 0)
	for _, c := range clients {
		all = append(all, c.lat...)
		rejected += c.rejected
		for _, s := range c.sampled {
			if status, resp := probe.post(w.ref, s.body); status != http.StatusOK || !bytes.Equal(stableCore(resp), s.core) {
				c.fail("sampled unique body: answer differs from the cache-off server's (status %d)", status)
			}
		}
		r.Attempted += c.sent
		r.Failed += c.nfailed
		for _, f := range c.failed {
			if len(r.failures) < 10 {
				r.failures = append(r.failures, f)
			}
		}
	}
	return all, rejected
}

// checkSliceSpan is how long a slice of a serving run is: long enough
// for a thousand checks and a p99 with ten samples beyond it, short
// enough that some slices fall between a neighbour's bursts.
const checkSliceSpan = 500 * time.Millisecond

func (w *checkLoad) measure(r *result, secs float64) {
	clients := w.clients()
	warm := time.Duration(min(2, secs/6) * float64(time.Second))
	drive(clients, w.handler, false, until(time.Now().Add(warm)))

	// The window is a whole number of slices; each request belongs to the
	// slice it completed in, and those that complete after the window's
	// end to none.
	window := time.Duration(secs * float64(time.Second))
	n := max(int(window/checkSliceSpan), 1)
	span := window / time.Duration(n)
	epoch := time.Now()
	for _, c := range clients {
		c.epoch = epoch
	}
	drive(clients, w.handler, true, until(epoch.Add(window)))
	slices := make([]slice, n)
	for i := range slices {
		slices[i].busy = span
	}
	for _, c := range clients {
		for i, at := range c.done {
			if k := int(at / int64(span)); k < n {
				slices[k].lat = append(slices[k].lat, c.lat[i])
			}
		}
	}
	w.collect(r, clients)
	opMetrics(r, slices, 0.99)
}

// health reads the server's own cache counters from /v1/healthz.
func health(h http.Handler) (service.CheckCacheHealth, error) {
	rw := respWriter{header: make(http.Header)}
	h.ServeHTTP(&rw, &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/healthz"},
		Header: make(http.Header), Host: "bench", Body: http.NoBody})
	var hr service.HealthResponse
	if err := json.Unmarshal(rw.body, &hr); err != nil {
		return service.CheckCacheHealth{}, fmt.Errorf("healthz: %w", err)
	}
	if hr.CheckCache == nil {
		return service.CheckCacheHealth{}, fmt.Errorf("healthz reports no check cache")
	}
	return *hr.CheckCache, nil
}

// Sizes of the traced run's two phases: requests under concurrent load
// for the counters (enough unique bodies to overflow the 8192-entry
// cache on either workload) and requests replayed one by one.
const (
	tracedLoadMiss = 12000
	tracedLoadDup  = 60000
	tracedReplay   = 2000
)

func (w *checkLoad) layers(r *result, tr *tracer) {
	// Phase 1: a fixed number of requests from P concurrent clients, for
	// the numbers only load produces: the server's cache counters, what a
	// check allocates, refusals.
	total := tracedLoadMiss
	if w.dup {
		total = tracedLoadDup
	}
	total = w.cfg.scaled(total)
	clients := w.clients()
	per := max(total/len(clients), 1)
	before, err := health(w.handler)
	r.attempt(err)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	drive(clients, w.handler, true, func(sent int) bool { return sent >= per })
	runtime.ReadMemStats(&m1)
	after, err := health(w.handler)
	r.attempt(err)
	lat, rejected := w.collect(r, clients)
	n := float64(len(lat))
	r.set("service.allocs_per_check", float64(m1.Mallocs-m0.Mallocs)/n)
	r.set("service.bytes_per_check", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	r.set("service.rejected", float64(rejected))
	lookups := float64(after.Hits - before.Hits + after.Misses - before.Misses)
	r.setNote("checkcache.hit_ratio", float64(after.Hits-before.Hits)/max(lookups, 1), "%d requests from %d clients", len(lat), len(clients))
	r.set("checkcache.evictions", float64(after.Evictions-before.Evictions))
	r.set("checkcache.coalesced", float64(after.Coalesced-before.Coalesced))

	// Phase 2: one client, one request at a time, against a fresh server;
	// each request is answered by the handler and then replayed through
	// the layers' public functions with a twin cache kept in step.
	w.replay(r, tr)

	// The loop's own cost: the same client against a handler that only
	// drains the body and answers 200.
	c := newClient(w, 0)
	c.lat = make(sample, 0, 20000)
	noop := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		var sink [512]byte
		for {
			if _, err := req.Body.Read(sink[:]); err != nil {
				break
			}
		}
		rw.WriteHeader(http.StatusOK)
	})
	for i := 0; i < cap(c.lat); i++ {
		c.one(noop, true)
	}
	r.set("bench.overhead_ns", c.lat.median())

	w.flowRecall(r)
	if !w.dup {
		sizeExponents(r, w.sources, w.cfg.seed)
	}
}

// findingFields is what identifies a finding, in the handler's JSON
// and in a taint.Report alike.
type findingFields struct {
	File      string `json:"file"`
	Source    string `json:"source"`
	Sink      string `json:"sink"`
	SourcePos string `json:"source_pos"`
	SinkPos   string `json:"sink_pos"`
	Category  string `json:"category"`
}

// findingsKey renders findings as one comparable string.
func findingsKey(fs []findingFields) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s|%s|%s|%s|%s|%s\n", f.File, f.Source, f.Sink, f.SourcePos, f.SinkPos, f.Category)
	}
	return b.String()
}

// stagedCheck redoes one /v1/check request through the layers' public
// functions: cache key, cache lookup, and on a miss lex, parse, dataflow,
// union, taint and a cache insert. twin stands in for the server's cache.
func (w *checkLoad) stagedCheck(tr *tracer, twin *checkcache.Cache, body []byte, fc *frontCounts) (findings string, hit bool, reports int) {
	tr.operation("op.check_staged", func() {
		var key checkcache.Key
		tr.do("checkcache.key", func() { key = checkcache.KeyOfBytes([]string{"twin", checkName, ""}, body) })
		var val []byte
		tr.do("checkcache.get", func() { val, hit = twin.Get(key) })
		if hit {
			findings = string(val)
			return
		}
		g, _ := stageFile(tr, checkName, string(body), fc)
		var union *propgraph.Graph
		tr.do("propgraph.union", func() { union = propgraph.Union(g) })
		var reps []taint.Report
		tr.do("taint.analyze", func() { reps = taint.Analyze(union, w.store) })
		fs := make([]findingFields, len(reps))
		for i := range reps {
			fs[i] = findingFields{reps[i].File, reps[i].SourceRep, reps[i].SinkRep,
				reps[i].SourcePos.String(), reps[i].SinkPos.String(), string(reps[i].Category)}
		}
		findings, reports = findingsKey(fs), len(reps)
		tr.do("checkcache.put", func() { twin.Put(key, []byte(findings)) })
	})
	return findings, hit, reports
}

// replay answers tracedReplay requests one at a time through the handler
// of a fresh server and redoes each with stagedCheck under spans, against
// a twin cache that so sees the server's exact sequence. The staged
// findings must equal the handler's.
func (w *checkLoad) replay(r *result, tr *tracer) {
	h := w.newServer(0)
	twin := checkcache.New(0, 0)
	c := newClient(w, len(w.sources)+1)
	n := w.cfg.scaled(tracedReplay)

	type replayed struct {
		op      int
		hit     bool
		onecall int64
	}
	var ops []replayed
	var fc frontCounts
	reports, twinHits := 0, 0
	for i := 0; i < n; i++ {
		body, _ := c.nextBody()
		t0 := time.Now()
		status, resp := c.post(h, body)
		onecall := int64(time.Since(t0))
		var got struct {
			Findings []findingFields `json:"findings"`
		}
		if err := json.Unmarshal(resp, &got); status != http.StatusOK || err != nil {
			r.attempt(fmt.Errorf("replayed request %d: status %d, %v", i, status, err))
			continue
		}

		staged, hit, nrep := w.stagedCheck(tr, twin, body, &fc)
		reports += nrep
		if hit {
			twinHits++
		}
		ops = append(ops, replayed{op: tr.op, hit: hit, onecall: onecall})
		var err error
		if staged != findingsKey(got.Findings) {
			err = fmt.Errorf("replayed request %d: staged findings differ from the handler's", i)
		}
		r.attempt(err)
	}
	if len(ops) == 0 {
		return
	}
	// The twin saw the same bodies in the same order as the server's
	// cache, so both must have hit equally often.
	if hc, err := health(h); err != nil || int(hc.Hits) != twinHits {
		r.fail("server cache hit %d times, twin %d (%v)", hc.Hits, twinHits, err)
	}
	nops := float64(len(ops))
	onecall := make(sample, len(ops))
	for i, o := range ops {
		onecall[i] = o.onecall
	}
	traceOverhead(r, tr, len(ops), onecall)

	// Handler time the layers it calls do not account for, request by
	// request: on a miss everything but parse (which contains the scan),
	// dataflow, union and taint; on a hit everything but key and lookup.
	missTwin := tr.perOp("pyparse.parse", "dataflow.analyze", "propgraph.union", "taint.analyze")
	hitTwin := tr.perOp("checkcache.key", "checkcache.get")
	var missSelf, hitSelf sample
	for _, o := range ops {
		if o.hit {
			hitSelf = append(hitSelf, o.onecall-hitTwin[o.op])
		} else {
			missSelf = append(missSelf, o.onecall-missTwin[o.op])
		}
	}
	r.setNote("service.miss_self_ns", missSelf.median(), "median of %d misses", len(missSelf))
	if len(hitSelf) > 0 {
		r.setNote("service.hit_self_ns", hitSelf.median(), "median of %d hits", len(hitSelf))
	}

	lt := tr.layerTimes()
	frontMetrics(r, lt, fc, len(ops))
	r.set("propgraph.union_s", (lt["propgraph.union"].total).Seconds()/nops)
	r.set("taint.analyze_s", (lt["taint.analyze"].total).Seconds()/nops)
	r.set("taint.reports", float64(reports)/nops)
	if g := lt["checkcache.get"]; g.n > 0 {
		r.set("checkcache.get_ns", float64(g.total)/float64(g.n))
	}
	if p := lt["checkcache.put"]; p.n > 0 {
		r.set("checkcache.put_ns", float64(p.total)/float64(p.n))
	}
}

// flowRecall is the share of the store corpus's ground-truth exploitable
// flows that the taint analysis reports under the learned store.
func (w *checkLoad) flowRecall(r *result) {
	fe := core.AnalyzeFiles(w.corp.FileMap(), core.Config{Workers: w.cfg.p})
	reported := make(map[[3]string]bool)
	for _, rep := range taint.Analyze(propgraph.Union(fe.Graphs...), w.store) {
		reported[[3]string{rep.File, rep.SourceRep, rep.SinkRep}] = true
	}
	found, total := 0, 0
	for _, f := range w.corp.Flows {
		if !f.Exploitable || f.Sanitized || f.WrongParam {
			continue
		}
		total++
		if reported[[3]string{f.File, f.SourceRep, f.SinkRep}] {
			found++
		}
	}
	r.setNote("taint.flow_recall", float64(found)/float64(max(total, 1)), "%d of %d exploitable flows", found, total)
}
