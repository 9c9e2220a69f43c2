package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"seldon/internal/obs"
	"seldon/internal/specio"
)

// postCheckRaw posts body to /v1/check and returns the status plus the
// raw response bytes, unparsed — the byte-identity tests compare wire
// encodings, not decoded structs.
func postCheckRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/check", "text/x-python", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

var (
	elapsedRe = regexp.MustCompile(`"elapsed_ms":[0-9eE.+-]+`)
	traceRe   = regexp.MustCompile(`"trace_id":"[0-9a-f]+"`)
)

// normalizeCheck masks the two per-request fields (elapsed_ms,
// trace_id); everything else must be byte-identical across the cold,
// cached, coalesced, and cache-disabled paths.
func normalizeCheck(raw []byte) string {
	s := elapsedRe.ReplaceAllString(string(raw), `"elapsed_ms":X`)
	return traceRe.ReplaceAllString(s, `"trace_id":"X"`)
}

// TestCheckByteIdenticalAcrossPaths pins the splice encoder: a cold
// analysis, a cache hit, and a run on a cache-disabled server produce
// byte-identical bodies modulo elapsed_ms and trace_id, at worker
// counts 1 and 4 — and each raw body is exactly what marshaling the
// decoded CheckResponse reproduces, so the splice can never drift from
// encoding/json.
func TestCheckByteIdenticalAcrossPaths(t *testing.T) {
	const parseErrSrc = "def broken(:\n    pass\n"
	for _, workers := range []int{1, 4} {
		for _, body := range []string{taintedSrc, sanitizedSrc, cleanSrc, parseErrSrc} {
			_, on := newTestServer(t, Config{Workers: workers})
			_, off := newTestServer(t, Config{Workers: workers, CheckCacheEntries: -1})

			_, cold := postCheckRaw(t, on.URL, body)
			_, hit := postCheckRaw(t, on.URL, body)
			_, disabled := postCheckRaw(t, off.URL, body)

			want := normalizeCheck(cold)
			if got := normalizeCheck(hit); got != want {
				t.Fatalf("workers=%d: cache hit differs from cold analysis:\n%s\n%s", workers, got, want)
			}
			if got := normalizeCheck(disabled); got != want {
				t.Fatalf("workers=%d: cache-disabled run differs from cold analysis:\n%s\n%s", workers, got, want)
			}

			// Splice == marshal: decode and re-encode the raw body.
			var decoded CheckResponse
			if err := json.Unmarshal(cold, &decoded); err != nil {
				t.Fatal(err)
			}
			remarshaled, err := json.Marshal(&decoded)
			if err != nil {
				t.Fatal(err)
			}
			if string(append(remarshaled, '\n')) != string(cold) {
				t.Fatalf("workers=%d: spliced body is not a faithful CheckResponse encoding:\ngot  %q\nwant %q",
					workers, cold, remarshaled)
			}
		}
	}
}

// TestCheckCacheHitReloadMiss pins generation keying: a reload that
// changes the store makes every old key unreachable (miss, fresh
// findings), and reloading back to a content-identical store revives
// the still-resident entries of that generation.
func TestCheckCacheHitReloadMiss(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.json")
	writeStore(t, path, testSpec(), specio.Meta{Generator: "test"})
	sp, meta, err := specio.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Spec: sp, Meta: meta, StorePath: path})

	if _, out := postCheck(t, ts.URL, taintedSrc); out.Total != 1 {
		t.Fatalf("cold check: %d findings, want 1", out.Total)
	}
	if _, out := postCheck(t, ts.URL, taintedSrc); out.Total != 1 {
		t.Fatalf("warm check: %d findings, want 1", out.Total)
	}
	h := getHealthz(t, ts.URL)
	if h.CheckCache == nil || h.CheckCache.Hits != 1 || h.CheckCache.Misses != 1 || h.CheckCache.Entries != 1 {
		t.Fatalf("healthz cache after hit = %+v", h.CheckCache)
	}

	// Swap in the sinkless store: same body, new generation, new answer.
	writeStore(t, path, sinklessSpec(), specio.Meta{Generator: "test"})
	if resp, _ := postReload(t, ts.URL); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	if _, out := postCheck(t, ts.URL, taintedSrc); out.Total != 0 {
		t.Fatalf("post-reload check served stale findings: %d, want 0", out.Total)
	}
	h = getHealthz(t, ts.URL)
	if h.CheckCache.Misses != 2 {
		t.Fatalf("reload did not invalidate: misses = %d, want 2", h.CheckCache.Misses)
	}

	// Reload back to a byte-identical original store: the epoch is the
	// fingerprint, so generation 1's entries are addressable again.
	writeStore(t, path, testSpec(), specio.Meta{Generator: "test"})
	if resp, _ := postReload(t, ts.URL); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	if _, out := postCheck(t, ts.URL, taintedSrc); out.Total != 1 {
		t.Fatalf("check after round-trip reload: %d findings, want 1", out.Total)
	}
	h = getHealthz(t, ts.URL)
	if h.CheckCache.Hits != 2 {
		t.Fatalf("content-identical generation did not revive its entries: hits = %d, want 2", h.CheckCache.Hits)
	}
	healthMatchesMetrics(t, ts.URL)
}

// TestCoalescedConcurrentChecks holds one analysis on the gate and
// piles identical requests behind it: exactly one analysis runs (one
// worker slot, one TimerAnalyze sample), the followers are counted
// coalesced, and everyone gets the same bytes.
func TestCoalescedConcurrentChecks(t *testing.T) {
	reg := obs.New()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Metrics: reg})
	gate := make(chan struct{})
	s.checkGate = gate

	const followers = 3
	type result struct {
		code int
		raw  string
	}
	results := make(chan result, followers+1)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/check", "text/x-python", strings.NewReader(taintedSrc))
		if err != nil {
			results <- result{code: -1}
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		results <- result{code: resp.StatusCode, raw: normalizeCheck(raw)}
	}

	go post() // leader takes the worker slot and blocks on the gate
	waitFor(t, "leader inflight", func() bool { return s.inflight.Load() == 1 })
	for i := 0; i < followers; i++ {
		go post()
	}
	waitFor(t, "followers coalesced", func() bool { return s.cfg.Metrics.Counter(obs.CounterCheckCoalesced) == followers })
	if got := s.admitted.Load(); got != 1 {
		t.Fatalf("admitted = %d with followers waiting, want 1 (followers must not hold slots)", got)
	}
	close(gate)

	var bodies []string
	for i := 0; i < followers+1; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.code)
		}
		bodies = append(bodies, r.raw)
	}
	for _, b := range bodies[1:] {
		if b != bodies[0] {
			t.Fatalf("coalesced responses differ:\n%s\n%s", b, bodies[0])
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters[obs.CounterCheckCoalesced]; got != followers {
		t.Errorf("%s = %d, want %d", obs.CounterCheckCoalesced, got, followers)
	}
	if tstat, ok := snap.Timers[TimerAnalyze]; !ok || tstat.Count != 1 {
		t.Errorf("analysis ran %d times for %d identical requests, want 1", tstat.Count, followers+1)
	}
	h := getHealthz(t, ts.URL)
	if h.CheckCache == nil || h.CheckCache.Coalesced != followers {
		t.Errorf("healthz coalesced = %+v, want %d", h.CheckCache, followers)
	}
	waitFor(t, "slots drained", func() bool { return s.admitted.Load() == 0 })
	healthMatchesMetrics(t, ts.URL)
}

// TestCoalescedFollowerCancellation cancels a follower mid-analysis:
// the follower alone times out (http.timeouts), the leader completes
// normally, and the flight still lands in the cache.
func TestCoalescedFollowerCancellation(t *testing.T) {
	reg := obs.New()
	s, ts := newTestServer(t, Config{Workers: 1, Metrics: reg})
	gate := make(chan struct{})
	s.checkGate = gate

	leader := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/check", "text/x-python", strings.NewReader(taintedSrc))
		if err != nil {
			leader <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		leader <- resp.StatusCode
	}()
	waitFor(t, "leader inflight", func() bool { return s.inflight.Load() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	followerErr := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/check", strings.NewReader(taintedSrc))
		if err != nil {
			followerErr <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			err = fmt.Errorf("follower got %d, want client cancellation", resp.StatusCode)
		}
		followerErr <- err
	}()
	waitFor(t, "follower coalesced", func() bool { return s.cfg.Metrics.Counter(obs.CounterCheckCoalesced) == 1 })

	cancel()
	if err := <-followerErr; !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("follower error = %v, want context cancellation", err)
	}
	// The follower's deadline fired server-side; the leader is untouched.
	waitFor(t, "follower timeout counted", func() bool {
		return reg.Snapshot().Counters[CounterTimeouts] == 1
	})

	close(gate)
	if code := <-leader; code != http.StatusOK {
		t.Fatalf("leader status = %d after follower cancellation, want 200", code)
	}
	// The completed flight populated the cache despite the dead follower
	// (same default filename as the leader, so the keys match).
	code, raw := postCheckRaw(t, ts.URL, taintedSrc)
	var out CheckResponse
	if err := json.Unmarshal(raw, &out); err != nil || code != http.StatusOK || out.Total != 1 {
		t.Fatalf("post-flight check: status %d findings %d (err %v), want 200/1", code, out.Total, err)
	}
	h := getHealthz(t, ts.URL)
	if h.CheckCache == nil || h.CheckCache.Hits < 1 {
		t.Fatalf("flight result never reached the cache: %+v", h.CheckCache)
	}
}

// TestConcurrentChecksReloadsAndScrapes is the cache-enabled race
// hammer: duplicate-heavy checks, store reloads flipping generations,
// and Prometheus scrapes all run concurrently. Every check must be
// consistent with exactly one store generation — run under -race via
// make race.
func TestConcurrentChecksReloadsAndScrapes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.json")
	writeStore(t, path, testSpec(), specio.Meta{Generator: "test"})
	sp, meta, err := specio.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Spec: sp, Meta: meta, StorePath: path, Workers: 4, QueueDepth: 64, Metrics: obs.New(),
	})

	bodies := []string{taintedSrc, sanitizedSrc, cleanSrc, taintedSrc + "\n# dup\n"}
	const checkers, checksEach, reloadsTotal, scrapes = 4, 25, 10, 25
	var wg sync.WaitGroup
	errs := make(chan string, checkers*checksEach+reloadsTotal+scrapes)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloadsTotal; i++ {
			if i%2 == 0 {
				specio.Save(path, sinklessSpec(), specio.Meta{Generator: "test"})
			} else {
				specio.Save(path, testSpec(), specio.Meta{Generator: "test"})
			}
			resp, err := http.Post(ts.URL+"/v1/reload", "", nil)
			if err != nil {
				errs <- "reload: " + err.Error()
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- "reload status " + resp.Status
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			resp, err := getProm(ts.URL)
			if err != nil {
				errs <- "scrape: " + err.Error()
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- "scrape status " + resp.Status
			}
		}
	}()
	for c := 0; c < checkers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < checksEach; i++ {
				body := bodies[(c+i)%len(bodies)]
				resp, err := http.Post(ts.URL+"/v1/check", "text/x-python", strings.NewReader(body))
				if err != nil {
					errs <- "check: " + err.Error()
					continue
				}
				var out CheckResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					errs <- "check status " + resp.Status
					continue
				}
				if out.Total != 0 && out.Total != 1 {
					errs <- "inconsistent findings"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	h := getHealthz(t, ts.URL)
	if h.CheckCache == nil || h.CheckCache.Hits == 0 {
		t.Errorf("duplicate-heavy hammer never hit the cache: %+v", h.CheckCache)
	}
}

// TestCheckCacheEvictionUnderByteCap bounds the cache tightly enough
// that distinct bodies must evict each other, then proves the server
// keeps serving correct answers straight through the churn.
func TestCheckCacheEvictionUnderByteCap(t *testing.T) {
	// 16 entries over 16 shards is one entry per shard: pushing 24
	// distinct keys through must evict somewhere by pigeonhole. The byte
	// cap stays loose enough (1 KiB per shard) that entries are accepted.
	const maxEntries, maxBytes = 16, 16 << 10
	_, ts := newTestServer(t, Config{CheckCacheEntries: maxEntries, CheckCacheBytes: maxBytes})
	for round := 0; round < 3; round++ {
		for i := 0; i < 24; i++ {
			body := fmt.Sprintf("%s\n# variant %d\n", taintedSrc, i)
			if _, out := postCheck(t, ts.URL, body); out.Total != 1 {
				t.Fatalf("round %d variant %d: %d findings, want 1", round, i, out.Total)
			}
		}
	}
	h := getHealthz(t, ts.URL)
	cc := h.CheckCache
	if cc == nil || cc.Evictions == 0 {
		t.Fatalf("24 variants through a 16-entry cache never evicted: %+v", cc)
	}
	if cc.Entries > maxEntries || cc.Bytes > maxBytes {
		t.Fatalf("cache over its caps: %+v", cc)
	}
	healthMatchesMetrics(t, ts.URL)
}
