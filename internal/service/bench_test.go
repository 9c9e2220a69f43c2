package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"seldon/internal/core"
	"seldon/internal/obs"
)

// reuseClient is a caller that owns one request, one body reader and
// one response writer for its whole life — the shape of the benchmark
// harness's client (bench/check.go) — so what a post allocates is what
// the handler allocates, not what httptest does.
type reuseClient struct {
	req    *http.Request
	body   reuseBody
	header http.Header
	status int
	resp   []byte
}

type reuseBody struct{ bytes.Reader }

func (*reuseBody) Close() error { return nil }

func newReuseClient() *reuseClient {
	c := &reuseClient{header: make(http.Header)}
	c.req = &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/v1/check"},
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Host: "bench", Body: &c.body}
	return c
}

func (c *reuseClient) Header() http.Header { return c.header }
func (c *reuseClient) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
}
func (c *reuseClient) Write(p []byte) (int, error) {
	c.WriteHeader(http.StatusOK)
	c.resp = append(c.resp, p...)
	return len(p), nil
}

// post sends one body and returns the status; the response bytes stay
// in c.resp until the next post.
func (c *reuseClient) post(h http.Handler, body []byte) int {
	c.body.Reset(body)
	c.req.ContentLength = int64(len(body))
	c.status, c.resp = 0, c.resp[:0]
	h.ServeHTTP(c, c.req)
	return c.status
}

// BenchmarkCheckHandler measures the /v1/check serving paths end-to-end
// through the handler (mux, telemetry, tracing, encoding included): a
// warm cache hit, a cold miss running the full pipeline on a standing
// worker's scratch, and a coalesced follower splicing a shared flight
// result. The hit is measured three ways: "hit" through httptest's
// recorder and request constructor (the form every earlier snapshot
// used), "hit_reuse" handler-only with a reusable request and writer,
// and "hit_wire" over a loopback socket with one keep-alive client. Run
// with -benchmem.
func BenchmarkCheckHandler(b *testing.B) {
	body := []byte(taintedSrc)
	newServer := func(cfg Config) *Server {
		cfg.Spec = testSpec()
		cfg.Metrics = obs.New()
		return New(cfg)
	}
	serve := func(b *testing.B, h http.Handler) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("check status = %d", rec.Code)
		}
	}

	b.Run("hit", func(b *testing.B) {
		s := newServer(Config{})
		h := s.Handler()
		serve(b, h) // populate the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, h)
		}
	})

	b.Run("hit_reuse", func(b *testing.B) {
		h := newServer(Config{}).Handler()
		c := newReuseClient()
		c.post(h, body) // populate the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := c.post(h, body); code != http.StatusOK {
				b.Fatalf("check status = %d", code)
			}
		}
	})

	b.Run("hit_wire", func(b *testing.B) {
		ts := httptest.NewServer(newServer(Config{}).Handler())
		defer ts.Close()
		post := func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/check", "text/x-python", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("check status = %d", resp.StatusCode)
			}
		}
		post() // populate the cache, open the connection
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post()
		}
	})

	b.Run("miss", func(b *testing.B) {
		s := newServer(Config{CheckCacheEntries: -1})
		h := s.Handler()
		serve(b, h) // warm the pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, h)
		}
	})

	b.Run("coalesced", func(b *testing.B) {
		s := newServer(Config{})
		root := s.cfg.Tracer.StartRootFrom("http.check", "")
		res, err := s.check(root, s.currentStore(), "request.py", taintedSrc, false, false, &core.Scratch{})
		root.End()
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		close(done)
		f := &flight{done: done, res: res}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			root := s.cfg.Tracer.StartRootFrom("http.check", "")
			span := s.cfg.Metrics.Start(TimerCheck)
			s.followFlight(rec, ctx, root, span, "request.py", f)
			root.End()
			if rec.Code != http.StatusOK {
				b.Fatalf("follower status = %d", rec.Code)
			}
		}
	})
}
