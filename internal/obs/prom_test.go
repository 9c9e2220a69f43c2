package obs

import (
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// promFixture builds a registry with fixed contents; the exposition of
// this exact state is pinned by testdata/metrics.prom.golden.
func promFixture() *Registry {
	r := New()
	r.Add("check.cache.hits", 42)
	r.Add("check.cache.misses", 40)
	r.Add("parse.errors", 0)
	r.Set("parallel.workers", 4)
	r.Set("cache.speedup", 12.9)
	for _, v := range []float64{0.003, 0.004, 0.004, 0.02, 0.75, 1.5, 250} {
		r.Observe("http.route.latency.check", v)
	}
	return r
}

// TestPromGolden pins the exposition format byte for byte. Regenerate
// deliberately with UPDATE_GOLDEN=1 go test ./internal/obs/ -run Golden.
func TestPromGolden(t *testing.T) {
	got := promFixture().Snapshot().Prom()
	golden := filepath.Join("testdata", "metrics.prom.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// parsePromHistogram extracts the cumulative bucket counts, sum, and
// count of one histogram family from an exposition.
func parsePromHistogram(t *testing.T, text, family string) (les []string, cums []int64, count int64) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, family+"_bucket{le="):
			rest := strings.TrimPrefix(line, family+"_bucket{le=")
			q := strings.SplitN(rest, "}", 2)
			le := strings.Trim(q[0], `"`)
			v, err := strconv.ParseInt(strings.TrimSpace(q[1]), 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			les = append(les, le)
			cums = append(cums, v)
		case strings.HasPrefix(line, family+"_count "):
			v, err := strconv.ParseInt(strings.TrimPrefix(line, family+"_count "), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			count = v
		}
	}
	return les, cums, count
}

func TestPromHistogramShape(t *testing.T) {
	text := string(promFixture().Snapshot().Prom())
	les, cums, count := parsePromHistogram(t, text, "seldon_http_route_latency_check_seconds")
	if len(les) != len(bucketBounds)+1 {
		t.Fatalf("bucket lines = %d, want %d", len(les), len(bucketBounds)+1)
	}
	if les[len(les)-1] != "+Inf" {
		t.Fatalf("last le = %q, want +Inf", les[len(les)-1])
	}
	for i := 1; i < len(cums); i++ {
		if cums[i] < cums[i-1] {
			t.Fatalf("buckets not monotone at %d: %d then %d", i, cums[i-1], cums[i])
		}
	}
	if cums[len(cums)-1] != count || count != 7 {
		t.Errorf("+Inf bucket = %d, count = %d, want both 7", cums[len(cums)-1], count)
	}
	// 0.003, 0.004, 0.004 land at or below the 0.005 boundary; 250
	// exceeds the last bound and lives only in +Inf.
	idx005 := -1
	for i, le := range les {
		if le == "0.005" {
			idx005 = i
		}
	}
	if idx005 < 0 || cums[idx005] != 3 {
		t.Errorf("le=0.005 cumulative = %d (idx %d), want 3", cums[idx005], idx005)
	}
	if cums[len(cums)-2] != 6 {
		t.Errorf("le=100 cumulative = %d, want 6 (250 only in +Inf)", cums[len(cums)-2])
	}
}

func TestTimerP99FromBuckets(t *testing.T) {
	r := New()
	// 100 fast observations and 2 slow outliers: a sorted-slice p95
	// misses the tail, the bucket p99 must land in the outlier range.
	for i := 0; i < 100; i++ {
		r.Observe("lat", 0.002)
	}
	r.Observe("lat", 4.0)
	r.Observe("lat", 4.5)
	st := r.Snapshot().Timers["lat"]
	if st.P99 < 2.5 || st.P99 > 4.5 {
		t.Errorf("p99 = %v, want within the (2.5, 4.5] outlier bucket", st.P99)
	}
	if st.Max != 4.5 {
		t.Errorf("max = %v", st.Max)
	}

	// Values beyond the last bound: p-infinity falls into +Inf, which
	// reports the exact max rather than a made-up boundary.
	r2 := New()
	for i := 0; i < 10; i++ {
		r2.Observe("big", 500)
	}
	if st := r2.Snapshot().Timers["big"]; st.P99 != 500 {
		t.Errorf("+Inf p99 = %v, want exact max 500", st.P99)
	}

	// A single observation: every quantile is that value.
	r3 := New()
	r3.Observe("one", 0.03)
	if st := r3.Snapshot().Timers["one"]; math.Abs(st.P99-0.03) > 0.021 {
		// clamped into [min, max] = [0.03, 0.03]
		t.Errorf("single-sample p99 = %v, want 0.03", st.P99)
	}
}

func TestTimerBucketsCumulative(t *testing.T) {
	r := New()
	for _, v := range []float64{0.0001, 0.04, 7.3} {
		r.Observe("lat", v)
	}
	st := r.Snapshot().Timers["lat"]
	if len(st.Buckets) != len(bucketBounds) {
		t.Fatalf("buckets = %d, want %d", len(st.Buckets), len(bucketBounds))
	}
	for i := 1; i < len(st.Buckets); i++ {
		if st.Buckets[i] < st.Buckets[i-1] {
			t.Fatalf("cumulative decreased at %d", i)
		}
	}
	if st.Buckets[len(st.Buckets)-1] != 3 {
		t.Errorf("last bound cum = %d, want 3", st.Buckets[len(st.Buckets)-1])
	}
	// Empty timers omit buckets (keeps the JSON round trip exact).
	if empty := (&Registry{timers: map[string]*timer{}}).Snapshot().Timers["x"]; empty.Buckets != nil {
		t.Errorf("empty timer has buckets: %v", empty.Buckets)
	}
}

func TestMetricsContentNegotiation(t *testing.T) {
	r := promFixture()
	mux := NewServeMux(r)

	// No Accept header → JSON (backwards compatible).
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Errorf("default content type = %q", ct)
	}

	// A Prometheus scrape Accept → text exposition.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "seldon_check_cache_hits_total 42") {
		t.Errorf("negotiated scrape missing counter:\n%s", rec.Body.String())
	}

	// text/plain with q=0 explicitly refuses the type: a pre-existing
	// JSON client sending it must keep getting JSON, not the exposition.
	req = httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain;q=0, application/json")
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Errorf("q=0 content type = %q, want JSON", ct)
	}

	// A bare text/plain (no parameters) still negotiates to Prometheus,
	// and gets the whole exposition: the golden's bytes.
	req = httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Header().Get("Content-Type") != PromContentType {
		t.Errorf("bare text/plain content type = %q", rec.Header().Get("Content-Type"))
	}
	if want := r.Snapshot().Prom(); rec.Body.String() != string(want) {
		t.Errorf("negotiated scrape is not the exposition:\n%s", rec.Body.String())
	}
}
