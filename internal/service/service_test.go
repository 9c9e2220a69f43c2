package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

// The paper's Fig. 2 specification: upload filename → secure_filename →
// save, the same triple the taint package's own tests use.
func testSpec() *spec.Spec {
	s := spec.New()
	s.Add(propgraph.Source, "flask.request.files['f'].filename")
	s.Add(propgraph.Sanitizer, "werkzeug.secure_filename()")
	s.Add(propgraph.Sink, "flask.request.files['f'].save()")
	return s
}

const taintedSrc = `from flask import request
import os

@app.route('/media/', methods=['POST'])
def media():
    filename = request.files['f'].filename
    path = os.path.join('/srv', filename)
    request.files['f'].save(path)
`

const sanitizedSrc = `from flask import request
from werkzeug import secure_filename
import os

@app.route('/media/', methods=['POST'])
def media():
    filename = request.files['f'].filename
    filename = secure_filename(filename)
    path = os.path.join('/srv', filename)
    request.files['f'].save(path)
`

const cleanSrc = `import os

def media():
    os.path.join('/srv', 'static.txt')
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Spec == nil {
		cfg.Spec = testSpec()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postCheck(t *testing.T, url, body string) (*http.Response, CheckResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/check?filename=app.py", "text/x-python", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out CheckResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, out
}

func TestCheckTaintedFlow(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postCheck(t, ts.URL, taintedSrc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Total != 1 || len(out.Findings) != 1 {
		t.Fatalf("findings = %+v", out)
	}
	f := out.Findings[0]
	if f.Source != "flask.request.files['f'].filename" ||
		f.Sink != "flask.request.files['f'].save()" ||
		f.Category != "path-traversal" || f.File != "app.py" {
		t.Errorf("finding = %+v", f)
	}
	if out.ByCategory["path-traversal"] != 1 {
		t.Errorf("by_category = %v", out.ByCategory)
	}
}

// TestCheckHostileBodies: bodies that once ended the process — 200,000
// nested brackets (stack overflow) and a 200,000-term power chain (out of
// memory) — are answered as parse errors with a position by the one
// worker there is, and that worker answers the next request. Left-nested
// chains of the same length — a sum and a call of a call — are not deep
// where the parser recurses, so they parse clean. A dict display of
// 16,000 string pairs, which once held the worker past its deadline while
// dataflow copied the growing element set once per entry, parses clean
// and is answered in time.
func TestCheckHostileBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []struct{ src, err string }{
		{"x = " + strings.Repeat("(", 200000) + "1" + strings.Repeat(")", 200000) + "\n",
			"app.py:1:205: too many nested parentheses"},
		{"x = y" + strings.Repeat("**y", 199999) + "\n",
			"app.py:1:3008: expression nested too deeply"},
		{"x = 1" + strings.Repeat(" + 1", 199999) + "\n", ""},
		{"x = f" + strings.Repeat("()", 200000) + "\n", ""},
		{literalTable(16000), ""},
	} {
		resp, out := postCheck(t, ts.URL, body.src)
		want := out.ParseError == ""
		if body.err != "" {
			want = strings.HasPrefix(out.ParseError, body.err)
		}
		if resp.StatusCode != http.StatusOK || !want {
			t.Errorf("%.12s…: status %d, parse_error %q, want 200 and one starting %q",
				body.src, resp.StatusCode, out.ParseError, body.err)
		}
		if next, out := postCheck(t, ts.URL, taintedSrc); next.StatusCode != http.StatusOK || out.Total != 1 {
			t.Errorf("after %.12s…: status %d, %d findings, want 200 and 1", body.src, next.StatusCode, out.Total)
		}
	}
}

// literalTable is a module holding one dict display of n string pairs,
// the shape of a vendored encoding or entity table.
func literalTable(n int) string {
	var src strings.Builder
	src.WriteString("table = {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "    'key%d': 'value%d',\n", i, i)
	}
	return src.String() + "}\n"
}

func TestCheckSanitizedFlow(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postCheck(t, ts.URL, sanitizedSrc)
	if resp.StatusCode != http.StatusOK || out.Total != 0 {
		t.Fatalf("status = %d, findings = %+v", resp.StatusCode, out)
	}
}

func TestCheckCleanFile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postCheck(t, ts.URL, cleanSrc)
	if resp.StatusCode != http.StatusOK || out.Total != 0 {
		t.Fatalf("status = %d, findings = %+v", resp.StatusCode, out)
	}
	if out.Findings == nil {
		t.Error("findings should encode as [], not null")
	}
}

func TestCheckTraceAndParseError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/check?trace=1", "text/x-python",
		strings.NewReader(taintedSrc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Findings) != 1 || !strings.Contains(out.Findings[0].Trace, "source") {
		t.Errorf("trace missing: %+v", out.Findings)
	}
	if out.File != "request.py" {
		t.Errorf("default filename = %q", out.File)
	}

	// A syntactically broken file still answers 200 with the parse
	// error surfaced (analysis over the recovered AST, the CLI contract).
	resp2, out2 := postCheck(t, ts.URL, "def broken(:\n    x ==\n")
	if resp2.StatusCode != http.StatusOK || out2.ParseError == "" {
		t.Errorf("status = %d, parse_error = %q", resp2.StatusCode, out2.ParseError)
	}
}

func TestCheckMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/check")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d, want 405", resp.StatusCode)
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	resp, _ := postCheck(t, ts.URL, strings.Repeat("x = 1\n", 100))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
	// At the limit is still accepted.
	resp2, _ := postCheck(t, ts.URL, "x = 1\n")
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("small body status = %d, want 200", resp2.StatusCode)
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestBackpressure429(t *testing.T) {
	reg := obs.New()
	// Cache off: this test pins raw queue backpressure, and identical
	// concurrent bodies would otherwise coalesce instead of queueing.
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Metrics: reg, CheckCacheEntries: -1})
	gate := make(chan struct{})
	s.checkGate = gate

	// Saturate: one check running (holds the worker slot, blocked on the
	// gate) and one queued.
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := http.Post(ts.URL+"/v1/check", "text/x-python", strings.NewReader(taintedSrc))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	waitFor(t, "saturation", func() bool {
		return s.admitted.Load() == 2 && s.inflight.Load() == 1
	})

	// The queue is full: the next request must be rejected immediately.
	resp, _ := postCheck(t, ts.URL, taintedSrc)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Release the gate: both held requests complete normally.
	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("held request %d: status = %d", i, code)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[CounterRejected] != 1 {
		t.Errorf("%s = %d, want 1", CounterRejected, snap.Counters[CounterRejected])
	}
	waitFor(t, "slots drained", func() bool { return s.admitted.Load() == 0 })
	snap = reg.Snapshot()
	if snap.Gauges[GaugeInflight] != 0 || snap.Gauges[GaugeQueued] != 0 {
		t.Errorf("gauges not reset: inflight=%v queued=%v",
			snap.Gauges[GaugeInflight], snap.Gauges[GaugeQueued])
	}
}

func TestRequestTimeout(t *testing.T) {
	reg := obs.New()
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 30 * time.Millisecond, Metrics: reg})
	gate := make(chan struct{})
	s.checkGate = gate
	defer close(gate)

	resp, _ := postCheck(t, ts.URL, taintedSrc)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if reg.Snapshot().Counters[CounterTimeouts] != 1 {
		t.Error("timeout not counted")
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	reg := obs.New()
	s := New(Config{Spec: testSpec(), Workers: 1, Metrics: reg})
	gate := make(chan struct{})
	s.checkGate = gate

	addrc := make(chan string, 1)
	s.cfg.OnReady = func(addr string) { addrc <- addr }
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, "127.0.0.1:0") }()
	addr := <-addrc

	// An in-flight request, blocked on the gate.
	result := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/check", "text/x-python", strings.NewReader(taintedSrc))
		if err != nil {
			result <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		result <- resp.StatusCode
	}()
	waitFor(t, "request in flight", func() bool { return s.inflight.Load() == 1 })

	// Trigger shutdown (the SIGINT/SIGTERM path). While the in-flight
	// check drains, the listener stays up with readiness flipped: load
	// balancers see /v1/readyz 503 and stop routing, but /v1/healthz
	// still answers 200 — the process is alive, just not accepting.
	cancel()
	waitFor(t, "readyz 503 during drain", func() bool {
		resp, err := http.Get("http://" + addr + "/v1/readyz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	hresp, err := http.Get("http://" + addr + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz during drain: %v", err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200 (liveness)", hresp.StatusCode)
	}
	close(gate)

	if code := <-result; code != http.StatusOK {
		t.Errorf("drained request status = %d, want 200", code)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Errorf("Run returned %v, want nil after graceful drain", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after drain")
	}
	// The listener is gone.
	if _, err := http.Get("http://" + addr + "/v1/healthz"); err == nil {
		t.Error("server still accepting after shutdown")
	}
}

func TestStartFailsFastOnBusyPort(t *testing.T) {
	s := New(Config{Spec: testSpec()})
	srv, _, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s2 := New(Config{Spec: testSpec()})
	if _, _, err := s2.Start(srv.Addr); err == nil {
		t.Fatal("second bind on the same port did not fail")
	}
}

func TestSpecsEndpoint(t *testing.T) {
	sp := testSpec()
	sp.RestrictSinkArgs("flask.request.files['f'].save()", 0)
	sp.AddBlacklist("*.append()")
	meta := specio.Meta{CorpusFingerprint: "sha256:abc", Generator: "seldon"}
	_, ts := newTestServer(t, Config{Spec: sp, Meta: meta})

	get := func(query string) (*http.Response, SpecsResponse) {
		resp, err := http.Get(ts.URL + "/v1/specs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out SpecsResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return resp, out
	}

	_, all := get("")
	if all.Count != 3 || all.Schema != specio.SchemaVersion || all.Meta != meta {
		t.Errorf("unfiltered = %+v", all)
	}
	if len(all.Blacklist) != 1 {
		t.Errorf("blacklist = %v", all.Blacklist)
	}

	_, sinks := get("?role=sink")
	if sinks.Count != 1 || sinks.Entries[0].Role != "sink" || len(sinks.Entries[0].Args) != 1 {
		t.Errorf("sinks = %+v", sinks)
	}

	_, filtered := get("?q=secure")
	if filtered.Count != 1 || filtered.Entries[0].Rep != "werkzeug.secure_filename()" {
		t.Errorf("q filter = %+v", filtered)
	}

	_, limited := get("?limit=2")
	if limited.Count != 3 || len(limited.Entries) != 2 {
		t.Errorf("limit: count=%d entries=%d", limited.Count, len(limited.Entries))
	}

	if resp, _ := get("?role=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad role status = %d", resp.StatusCode)
	}
	if resp, err := http.Post(ts.URL+"/v1/specs", "", nil); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /v1/specs status = %d", resp.StatusCode)
		}
	}
}

func TestHealthzAndMetricsMux(t *testing.T) {
	reg := obs.New()
	_, ts := newTestServer(t, Config{Metrics: reg})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Specs != 3 {
		t.Errorf("healthz = %+v", h)
	}

	// One check, then the shared /metrics surface must show the route
	// timers, whose counts are the request counts.
	postCheck(t, ts.URL, taintedSrc)
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Timers[TimerRoutePrefix+"healthz"].Count != 1 || snap.Timers[TimerRoutePrefix+"check"].Count != 1 ||
		snap.Timers[TimerAnalyze].Count != 1 {
		t.Errorf("latency timers = %v", snap.Timers)
	}
}

func TestDedupeParam(t *testing.T) {
	// Two independent tainted flows with the same (source, sink) reps:
	// dedupe=1 collapses them to one finding.
	src := taintedSrc + `
def media2():
    filename = request.files['f'].filename
    request.files['f'].save(filename)
`
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/check?dedupe=1", "text/x-python", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Findings) != 1 {
		t.Errorf("dedupe left %d findings", len(out.Findings))
	}
}
