package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"seldon/internal/obs"
	"seldon/internal/obs/trace"
)

// What the serving path records and returns, pinned per path — hit,
// miss, coalesced follower — so that work moved out of the hit's way
// cannot take a span, an attribute, a header or a metric with it.

var (
	traceIDRe = regexp.MustCompile(`^[0-9a-f]{32}$`)
	spanIDRe  = regexp.MustCompile(`^[0-9a-f]{16}$`)
)

// checkOutcome is one /v1/check answer as a client sees it.
type checkOutcome struct {
	code   int
	header http.Header
	out    CheckResponse
}

func postCheckWith(url, body, traceparent string) (checkOutcome, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/check", strings.NewReader(body))
	if err != nil {
		return checkOutcome{}, err
	}
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return checkOutcome{}, err
	}
	defer resp.Body.Close()
	o := checkOutcome{code: resp.StatusCode, header: resp.Header}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return o, err
	}
	return o, json.Unmarshal(raw, &o.out)
}

// servePaths answers taintedSrc three ways on one server — a leader
// that misses, a follower coalesced onto it, then a hit — and returns
// the three answers. traceparent, when set, is sent with every request
// under a span ID of its own.
func servePaths(t *testing.T, s *Server, url string, traceparent func(i int) string) (miss, follower, hit checkOutcome) {
	t.Helper()
	gate := make(chan struct{})
	s.checkGate = gate
	type res struct {
		o   checkOutcome
		err error
	}
	leaderc, followerc := make(chan res, 1), make(chan res, 1)
	go func() {
		o, err := postCheckWith(url, taintedSrc, traceparent(0))
		leaderc <- res{o, err}
	}()
	waitFor(t, "leader inflight", func() bool { return s.inflight.Load() == 1 })
	go func() {
		o, err := postCheckWith(url, taintedSrc, traceparent(1))
		followerc <- res{o, err}
	}()
	waitFor(t, "follower coalesced", func() bool { return s.coalesced.Load() == 1 })
	close(gate)
	l, f := <-leaderc, <-followerc
	if l.err != nil || f.err != nil {
		t.Fatalf("leader %v, follower %v", l.err, f.err)
	}
	waitFor(t, "slot released", func() bool { return s.admitted.Load() == 0 })
	h, err := postCheckWith(url, taintedSrc, traceparent(2))
	if err != nil {
		t.Fatal(err)
	}
	return l.o, f.o, h
}

// TestCheckTraceShapePerPath pins the published span tree of each
// serving path: span names in end order with the root last, every
// attribute and its value, ID widths and alphabet, one ID per span, the
// children parented on the root, and the three places a client reads
// the trace ID agreeing with the ring.
func TestCheckTraceShapePerPath(t *testing.T) {
	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	callerSpans := []string{"00f067aa0ba902b7", "00f067aa0ba902b8", "00f067aa0ba902b9"}
	for _, adopt := range []bool{false, true} {
		t.Run(fmt.Sprintf("adopt=%v", adopt), func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1})
			store := s.currentStore().fingerprint
			tp := func(i int) string {
				if !adopt {
					return ""
				}
				// Surrounding blanks are trimmed, as they always were.
				return " 00-" + callerTrace + "-" + callerSpans[i] + "-01 "
			}
			miss, follower, hit := servePaths(t, s, ts.URL, tp)

			bodyBytes := fmt.Sprint(len(taintedSrc))
			rootAttrs := func(extra ...trace.Attr) []trace.Attr {
				return append([]trace.Attr{{Key: "file", Value: "request.py"}, {Key: "store", Value: store}}, extra...)
			}
			type wantSpan struct {
				name  string
				attrs []trace.Attr
			}
			admission := wantSpan{"admission", []trace.Attr{{Key: "body_bytes", Value: bodyBytes}}}
			cases := []struct {
				path string
				o    checkOutcome
				want []wantSpan
			}{
				{"miss", miss, []wantSpan{admission, {"queue", nil}, {"parse", nil}, {"dataflow", nil},
					{"taint", []trace.Attr{{Key: "findings", Value: "1"}}}, {"encode", nil},
					{"http.check", rootAttrs()}}},
				{"follower", follower, []wantSpan{admission, {"encode", nil},
					{"http.check", rootAttrs(trace.Attr{Key: "coalesced", Value: "true"})}}},
				{"hit", hit, []wantSpan{admission, {"encode", nil},
					{"http.check", rootAttrs(trace.Attr{Key: "cache", Value: "hit"})}}},
			}
			for i, c := range cases {
				if c.o.code != http.StatusOK || c.o.out.Total != 1 {
					t.Fatalf("%s: status %d, %d findings", c.path, c.o.code, c.o.out.Total)
				}
				tid := c.o.header.Get("X-Trace-Id")
				if !traceIDRe.MatchString(tid) {
					t.Fatalf("%s: X-Trace-Id = %q", c.path, tid)
				}
				if adopt && tid != callerTrace {
					t.Errorf("%s: X-Trace-Id = %q, want the caller's %q", c.path, tid, callerTrace)
				}
				if c.o.out.TraceID != tid {
					t.Errorf("%s: body trace_id = %q, header %q", c.path, c.o.out.TraceID, tid)
				}
				if got := c.o.header.Get("Content-Type"); got != "application/json" {
					t.Errorf("%s: Content-Type = %q", c.path, got)
				}

				// Under adoption the three requests share one trace ID; the
				// ring returns the newest, so tell them apart by remote parent.
				var td trace.TraceData
				if adopt {
					found := false
					for _, cand := range s.cfg.Tracer.Traces() {
						if n := len(cand.Spans); cand.TraceID == tid && cand.Spans[n-1].ParentID == callerSpans[i] {
							td, found = cand, true
						}
					}
					if !found {
						t.Fatalf("%s: no trace in the ring parented on caller span %s", c.path, callerSpans[i])
					}
				} else {
					td = fetchTrace(t, ts.URL, tid)
				}
				if td.TraceID != tid || td.Root != "http.check" || td.Dropped != 0 || td.RemoteParent != adopt {
					t.Errorf("%s: trace = %+v", c.path, td)
				}
				if len(td.Spans) != len(c.want) {
					t.Fatalf("%s: %d spans, want %d:\n%s", c.path, len(td.Spans), len(c.want), td.Tree())
				}
				root := td.Spans[len(td.Spans)-1]
				wantParent := ""
				if adopt {
					wantParent = callerSpans[i]
				}
				if root.ParentID != wantParent {
					t.Errorf("%s: root parent = %q, want %q", c.path, root.ParentID, wantParent)
				}
				if got, want := c.o.header.Get("Traceparent"), "00-"+tid+"-"+root.SpanID+"-01"; got != want {
					t.Errorf("%s: Traceparent = %q, want %q", c.path, got, want)
				}
				seen := map[string]bool{}
				for k, sd := range td.Spans {
					w := c.want[k]
					if sd.Name != w.name {
						t.Errorf("%s: span %d is %q, want %q", c.path, k, sd.Name, w.name)
					}
					if !spanIDRe.MatchString(sd.SpanID) || seen[sd.SpanID] {
						t.Errorf("%s: span %q id %q malformed or repeated", c.path, sd.Name, sd.SpanID)
					}
					seen[sd.SpanID] = true
					if k < len(td.Spans)-1 && sd.ParentID != root.SpanID {
						t.Errorf("%s: span %q parent %q, want the root %q", c.path, sd.Name, sd.ParentID, root.SpanID)
					}
					if len(sd.Attrs) != len(w.attrs) {
						t.Errorf("%s: span %q attrs = %v, want %v", c.path, sd.Name, sd.Attrs, w.attrs)
						continue
					}
					for a := range w.attrs {
						if sd.Attrs[a] != w.attrs[a] {
							t.Errorf("%s: span %q attr %d = %v, want %v", c.path, sd.Name, a, sd.Attrs[a], w.attrs[a])
						}
					}
				}
			}
		})
	}
}

// TestCheckMetricsGolden pins every metric name /metrics exposes after
// one miss, one follower, one hit and one 405 on /v1/check, with the
// value of each counter and gauge and the sample count of each timer:
// the route's share of the metrics contract. A name added, dropped or
// respelled on the serving path fails here.
func TestCheckMetricsGolden(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	servePaths(t, s, ts.URL, func(int) string { return "" })
	resp, err := http.Get(ts.URL + "/v1/check")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET /v1/check: status %d, Allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k, v := range snap.Counters {
		got = append(got, fmt.Sprintf("counter %s %d", k, v))
	}
	for k, v := range snap.Gauges {
		if k == obs.GaugeFrontendSpeedup { // a ratio of two wall times: the name is the contract
			got = append(got, "gauge "+k)
			continue
		}
		got = append(got, fmt.Sprintf("gauge %s %g", k, v))
	}
	for k, v := range snap.Timers {
		got = append(got, fmt.Sprintf("timer %s count=%d", k, v.Count))
	}
	sort.Strings(got)
	want := []string{
		"counter check.cache.hits 1",
		"counter check.cache.misses 2",
		"counter check.coalesced 1",
		"counter dataflow.events 6",
		"counter dataflow.functions 1",
		"counter dataflow.modules 1",
		"counter files.analyzed 1",
		"counter http.errors 1",
		"counter http.requests 4",
		"counter http.requests.check 4",
		"counter http.responses.check.2xx 3",
		"counter http.responses.check.4xx 1",
		"counter parse.errors 0",
		"counter pool.gets 1",
		"counter pool.news 1",
		"counter taint.reports 1",
		"gauge check.cache.bytes 284",
		"gauge check.cache.entries 1",
		"gauge frontend.speedup",
		"gauge http.inflight 0",
		"gauge http.queued 0",
		"gauge http.route.inflight.check 0",
		"gauge parallel.workers 1",
		"gauge store.specs 3",
		"timer file.analyze count=1",
		"timer file.parse count=1",
		"timer http.check.analyze count=1",
		"timer http.check.latency count=3",
		"timer http.route.latency.check count=4",
		"timer stage.dataflow count=1",
		"timer stage.frontend count=1",
		"timer stage.parse count=1",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("/metrics after miss + follower + hit + 405:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if len(snap.Traces) != 0 {
		t.Errorf("/metrics trace series = %v, want none", snap.Traces)
	}
}

// TestConcurrentHitsCountExactly drives N goroutines × M cache hits
// straight through the handler and requires the counters a hit touches
// to land on exactly N·M (plus the one populating miss) and the route's
// in-flight gauge to return to zero: no update lost between callers.
// It runs under -race via make race.
func TestConcurrentHitsCountExactly(t *testing.T) {
	reg := obs.New()
	s := New(Config{Spec: testSpec(), Metrics: reg})
	h := s.Handler()
	serveOnce(t, h, []byte(taintedSrc)) // the populating miss

	const callers, hitsEach = 8, 200
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < hitsEach; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(taintedSrc)))
				if rec.Code != http.StatusOK {
					t.Errorf("hit status = %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()

	snap := reg.Snapshot()
	const hits = callers * hitsEach
	for name, want := range map[string]int64{
		obs.CounterCheckCacheHits:       hits,
		obs.CounterCheckCacheMisses:     1,
		CounterRequests:                 hits + 1,
		CounterRequests + ".check":      hits + 1,
		CounterResponses + ".check.2xx": hits + 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]int64{TimerCheck: hits + 1, TimerRoutePrefix + "check": hits + 1} {
		if got := snap.Timers[name].Count; got != want {
			t.Errorf("timer %s count = %d, want %d", name, got, want)
		}
	}
	if g := snap.Gauges[GaugeRouteInflightPrefix+"check"]; g != 0 {
		t.Errorf("gauge %s = %v after every caller returned, want 0", GaugeRouteInflightPrefix+"check", g)
	}
	if started, finished, _ := s.cfg.Tracer.Stats(); started != hits+1 || finished != hits+1 {
		t.Errorf("tracer started %d, finished %d, want %d each", started, finished, hits+1)
	}
}
