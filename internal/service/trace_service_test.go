package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"seldon/internal/obs"
	"seldon/internal/obs/trace"
)

// fetchTrace retrieves one finished trace by ID from /debug/traces,
// polling briefly because the root span is pushed to the ring just
// after the response bytes reach the client.
func fetchTrace(t *testing.T, base, traceID string) trace.TraceData {
	t.Helper()
	var td trace.TraceData
	waitFor(t, "trace "+traceID+" in ring", func() bool {
		resp, err := http.Get(base + "/debug/traces?trace_id=" + traceID)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return false
		}
		return json.NewDecoder(resp.Body).Decode(&td) == nil
	})
	return td
}

// spanNames maps span name → SpanData for single-occurrence lookups.
func spanNames(td trace.TraceData) map[string]trace.SpanData {
	m := make(map[string]trace.SpanData, len(td.Spans))
	for _, sd := range td.Spans {
		m[sd.Name] = sd
	}
	return m
}

// TestCheckTraceAcceptance is the acceptance path of the tracing
// tentpole: a /v1/check answer carries an X-Trace-Id whose trace,
// fetched back from /debug/traces, holds the full stage chain with
// durations that tile the request wall time.
func TestCheckTraceAcceptance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postCheck(t, ts.URL, taintedSrc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if len(traceID) != 32 {
		t.Fatalf("X-Trace-Id = %q, want 32 hex chars", traceID)
	}
	if out.TraceID != traceID {
		t.Errorf("body trace_id = %q, header = %q", out.TraceID, traceID)
	}
	if tp := resp.Header.Get("Traceparent"); !strings.Contains(tp, traceID) {
		t.Errorf("Traceparent %q does not carry trace id %q", tp, traceID)
	}

	td := fetchTrace(t, ts.URL, traceID)
	if td.TraceID != traceID || td.Root != "http.check" {
		t.Fatalf("trace = %+v", td)
	}
	byName := spanNames(td)
	root, ok := byName["http.check"]
	if !ok || root.ParentID != "" {
		t.Fatalf("root span missing or parented: %+v", root)
	}

	// Every pipeline stage appears, parented on the root, inside the
	// root's time window.
	var childSum int64
	for _, name := range []string{"admission", "queue", "parse", "dataflow", "taint", "encode"} {
		sd, ok := byName[name]
		if !ok {
			t.Fatalf("stage span %q missing; trace:\n%s", name, td.Tree())
		}
		if sd.ParentID != root.SpanID {
			t.Errorf("%s parent = %q, want root %q", name, sd.ParentID, root.SpanID)
		}
		if sd.DurationNanos < 0 {
			t.Errorf("%s duration = %d", name, sd.DurationNanos)
		}
		slack := int64(2 * time.Millisecond)
		if sd.StartUnixNano < root.StartUnixNano-slack ||
			sd.StartUnixNano+sd.DurationNanos > root.StartUnixNano+root.DurationNanos+slack {
			t.Errorf("%s [%d +%d] outside root window [%d +%d]",
				name, sd.StartUnixNano, sd.DurationNanos, root.StartUnixNano, root.DurationNanos)
		}
		childSum += sd.DurationNanos
	}
	// The stages tile the request: their summed time cannot exceed the
	// root wall (plus scheduling slack), and the root wall tracks the
	// server-reported elapsed time.
	if max := root.DurationNanos + int64(5*time.Millisecond); childSum > max {
		t.Errorf("children sum %d ns > root %d ns", childSum, root.DurationNanos)
	}
	rootMS := float64(root.DurationNanos) / float64(time.Millisecond)
	if diff := rootMS - out.ElapsedMS; diff < -50 || diff > 50 {
		t.Errorf("root span %.2fms vs elapsed_ms %.2f", rootMS, out.ElapsedMS)
	}
}

func TestTraceparentPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const parentTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const parentSpan = "00f067aa0ba902b7"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/check",
		strings.NewReader(cleanSrc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", "00-"+parentTrace+"-"+parentSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The server joins the caller's trace rather than minting a new one.
	if got := resp.Header.Get("X-Trace-Id"); got != parentTrace {
		t.Fatalf("X-Trace-Id = %q, want caller's %q", got, parentTrace)
	}
	td := fetchTrace(t, ts.URL, parentTrace)
	if !td.RemoteParent {
		t.Error("trace not marked remote_parent")
	}
	root := spanNames(td)["http.check"]
	if root.ParentID != parentSpan {
		t.Errorf("root parent = %q, want caller span %q", root.ParentID, parentSpan)
	}
}

func TestReadyzSplitFromHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d before drain", code)
	}

	s.draining.Store(true)
	// Readiness flips, liveness does not, and new checks are refused.
	if code := get("/v1/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz = %d while draining, want 503", code)
	}
	if code := get("/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz = %d while draining, want 200", code)
	}
	resp, _ := postCheck(t, ts.URL, cleanSrc)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("check while draining = %d, want 503", resp.StatusCode)
	}
	s.draining.Store(false)
}

// TestRetryAfterComputed pins the 429 Retry-After hint to the formula
// p50 service time × admitted / workers (ceil, clamped to [1, 30])
// instead of the old hardcoded "1". The p50 comes from TimerAnalyze —
// the route's end-to-end latency already contains queue wait, which the
// admitted/workers factor would double-count.
func TestRetryAfterComputed(t *testing.T) {
	saturateAnd429 := func(t *testing.T, reg *obs.Registry) string {
		// Cache off: saturation needs the identical bodies to queue, not
		// coalesce onto one flight.
		s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Metrics: reg, CheckCacheEntries: -1})
		gate := make(chan struct{})
		s.checkGate = gate
		defer close(gate)
		for i := 0; i < 2; i++ {
			go func() {
				resp, err := http.Post(ts.URL+"/v1/check", "text/x-python", strings.NewReader(cleanSrc))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
		waitFor(t, "saturation", func() bool {
			return s.admitted.Load() == 2 && s.inflight.Load() == 1
		})
		resp, _ := postCheck(t, ts.URL, cleanSrc)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", resp.StatusCode)
		}
		return resp.Header.Get("Retry-After")
	}

	t.Run("no samples falls back to 1", func(t *testing.T) {
		if got := saturateAnd429(t, obs.New()); got != "1" {
			t.Errorf("Retry-After = %q, want 1", got)
		}
	})
	t.Run("derived from p50 and queue depth", func(t *testing.T) {
		reg := obs.New()
		for i := 0; i < 5; i++ {
			reg.Observe(TimerAnalyze, 2.0) // seconds
		}
		// p50=2s, 2 admitted ahead, 1 worker → ceil(2*2/1) = 4s.
		if got := saturateAnd429(t, reg); got != "4" {
			t.Errorf("Retry-After = %q, want 4", got)
		}
	})
	t.Run("clamped to 30", func(t *testing.T) {
		reg := obs.New()
		for i := 0; i < 5; i++ {
			reg.Observe(TimerAnalyze, 100.0)
		}
		if got := saturateAnd429(t, reg); got != "30" {
			t.Errorf("Retry-After = %q, want 30", got)
		}
	})
}

func TestPerRouteSeries(t *testing.T) {
	reg := obs.New()
	_, ts := newTestServer(t, Config{Metrics: reg})
	postCheck(t, ts.URL, cleanSrc)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	snap := reg.Snapshot()
	for _, c := range []string{
		CounterResponses + ".check.2xx",
		CounterResponses + ".healthz.2xx",
	} {
		if snap.Counters[c] != 1 {
			t.Errorf("counter %s = %d, want 1", c, snap.Counters[c])
		}
	}
	for _, route := range []string{"check", "healthz"} {
		if snap.Timers[TimerRoutePrefix+route].Count != 1 {
			t.Errorf("timer %s count = %d, want 1",
				TimerRoutePrefix+route, snap.Timers[TimerRoutePrefix+route].Count)
		}
		if g := snap.Gauges[GaugeRouteInflightPrefix+route]; g != 0 {
			t.Errorf("gauge %s = %v after completion, want 0", GaugeRouteInflightPrefix+route, g)
		}
	}
}

// TestConcurrentCheckAndScrape hammers /v1/check while scraping
// /debug/traces and Prometheus /metrics from other goroutines — the -race
// target for the whole tracing/exposition surface. Every scraped trace
// must be internally consistent (spans parented inside the trace) and
// every scraped histogram monotone.
func TestConcurrentCheckAndScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	bodies := []string{taintedSrc, sanitizedSrc, cleanSrc}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Post(ts.URL+"/v1/check", "text/x-python",
					strings.NewReader(bodies[(w+i)%len(bodies)]))
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status = %d", resp.StatusCode)
				}
			}
		}(w)
	}

	scrapeErrs := make(chan error, 64)
	var scrapers sync.WaitGroup
	for g := 0; g < 2; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/debug/traces")
				if err != nil {
					continue
				}
				var dump trace.Dump
				err = json.NewDecoder(resp.Body).Decode(&dump)
				resp.Body.Close()
				if err != nil {
					scrapeErrs <- err
					return
				}
				for _, td := range dump.Traces {
					if err := checkTraceIntegrity(td); err != nil {
						scrapeErrs <- err
						return
					}
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := getProm(ts.URL)
				if err != nil {
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					continue
				}
				if err := checkBucketsMonotone(string(body)); err != nil {
					scrapeErrs <- err
					return
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	scrapers.Wait()
	close(scrapeErrs)
	for err := range scrapeErrs {
		t.Error(err)
	}
}

// checkTraceIntegrity verifies one scraped trace: a root span matching
// the trace's Root name, and every span parented either on the root's
// remote parent or on another span in the same trace.
func checkTraceIntegrity(td trace.TraceData) error {
	if td.TraceID == "" || len(td.Spans) == 0 {
		return fmt.Errorf("empty trace %+v", td)
	}
	ids := make(map[string]bool, len(td.Spans))
	for _, sd := range td.Spans {
		if sd.SpanID == "" {
			return fmt.Errorf("trace %s: span %q without id", td.TraceID, sd.Name)
		}
		ids[sd.SpanID] = true
	}
	rootSeen := false
	for _, sd := range td.Spans {
		switch {
		case sd.ParentID == "":
			if sd.Name != td.Root {
				return fmt.Errorf("trace %s: parentless span %q is not root %q",
					td.TraceID, sd.Name, td.Root)
			}
			rootSeen = true
		case !ids[sd.ParentID]:
			if sd.Name == td.Root && td.RemoteParent {
				rootSeen = true
				continue // root's parent lives in the caller's process
			}
			return fmt.Errorf("trace %s: span %q parent %q not in trace",
				td.TraceID, sd.Name, sd.ParentID)
		}
	}
	if !rootSeen {
		return fmt.Errorf("trace %s: no root span", td.TraceID)
	}
	return nil
}

// getProm scrapes url's /metrics as a Prometheus server does, asking for
// the text exposition.
func getProm(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	return http.DefaultClient.Do(req)
}

// checkBucketsMonotone verifies every histogram family in a Prometheus
// text scrape has non-decreasing cumulative bucket counts.
func checkBucketsMonotone(text string) error {
	last := map[string]float64{} // family → previous cumulative count
	for _, line := range strings.Split(text, "\n") {
		idx := strings.Index(line, "_bucket{le=")
		if idx < 0 {
			continue
		}
		family := line[:idx]
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return fmt.Errorf("bad bucket line %q: %w", line, err)
		}
		if v < last[family] {
			return fmt.Errorf("%s buckets not monotone: %g after %g (%q)",
				family, v, last[family], line)
		}
		last[family] = v
	}
	return nil
}
