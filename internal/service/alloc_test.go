package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"seldon/internal/core"
	"seldon/internal/obs"
)

// Steady-state allocation budgets for the fast paths. These are
// regression tripwires, not targets: each is the measured count plus a
// quarter (28, 9, 12 and 120 when they were set), so an accidental
// per-request allocation — a dropped pool, a fresh buffer, a closure
// capture, a span or a metric name built per request again — fails
// loudly while compiler and runtime drift does not. "hit" goes through
// httptest's recorder and request constructor, which allocate 19 of its
// 28; "hit reuse" is the same request from a caller that keeps its
// request and writer, so the count is the handler's alone. Most of a
// miss is the front-end, whose scratch recycling took it down from 403,
// and standing workers from 148 (no goroutine, release closure or
// one-graph union per miss); losing a slab there costs tens of
// allocations, not hundreds.
const (
	allocBudgetHit       = 35  // cache hit: request decode + key + splice
	allocBudgetHitReuse  = 11  // the same, without httptest's share
	allocBudgetCoalesced = 15  // follower: wait + splice only
	allocBudgetMiss      = 150 // full analysis on a worker's scratch
)

func newAllocServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Spec == nil {
		cfg.Spec = testSpec()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.New()
	}
	return New(cfg)
}

func serveOnce(t *testing.T, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("check status = %d", rec.Code)
	}
}

func TestCheckAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	body := []byte(taintedSrc)

	t.Run("cache hit", func(t *testing.T) {
		s := newAllocServer(t, Config{})
		h := s.Handler()
		serveOnce(t, h, body) // populate
		avg := testing.AllocsPerRun(200, func() { serveOnce(t, h, body) })
		t.Logf("cache-hit check: %.1f allocs/request", avg)
		if avg > allocBudgetHit {
			t.Errorf("cache-hit check allocates %.1f/request, budget %d", avg, allocBudgetHit)
		}
	})

	t.Run("cache hit, reusable request and writer", func(t *testing.T) {
		h := newAllocServer(t, Config{}).Handler()
		c := newReuseClient()
		c.post(h, body) // populate
		avg := testing.AllocsPerRun(200, func() {
			if code := c.post(h, body); code != http.StatusOK {
				t.Fatalf("check status = %d", code)
			}
		})
		t.Logf("cache-hit check, handler only: %.1f allocs/request", avg)
		if avg > allocBudgetHitReuse {
			t.Errorf("cache-hit check allocates %.1f/request in the handler, budget %d", avg, allocBudgetHitReuse)
		}
	})

	t.Run("coalesced follower", func(t *testing.T) {
		// The follower's own work is everything after joining the flight:
		// wait, then splice-encode the shared result. Drive followFlight
		// directly against a resolved flight — the only way to measure the
		// follower deterministically without a live blocked leader.
		s := newAllocServer(t, Config{})
		root := s.cfg.Tracer.StartRootFrom("http.check", "")
		res, err := s.check(root, s.currentStore(), "request.py", taintedSrc, false, false, &core.Scratch{})
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		close(done)
		f := &flight{done: done, res: res}
		ctx := context.Background()
		avg := testing.AllocsPerRun(200, func() {
			rec := httptest.NewRecorder()
			root := s.cfg.Tracer.StartRootFrom("http.check", "")
			s.followFlight(rec, ctx, root, time.Now(), "request.py", f)
			root.End()
			if rec.Code != http.StatusOK {
				t.Fatalf("follower status = %d", rec.Code)
			}
		})
		t.Logf("coalesced follower: %.1f allocs/request", avg)
		if avg > allocBudgetCoalesced {
			t.Errorf("coalesced follower allocates %.1f/request, budget %d", avg, allocBudgetCoalesced)
		}
	})

	t.Run("pooled miss", func(t *testing.T) {
		// Cache off: every request runs the full pipeline on a worker's
		// scratch. The budget bounds the whole analysis, so losing the
		// scratch, a goroutine per miss again, or a new per-file
		// allocation in parse/dataflow trips.
		s := newAllocServer(t, Config{CheckCacheEntries: -1})
		h := s.Handler()
		serveOnce(t, h, body) // warm the pools
		avg := testing.AllocsPerRun(100, func() { serveOnce(t, h, body) })
		t.Logf("pooled miss: %.1f allocs/request", avg)
		if avg > allocBudgetMiss {
			t.Errorf("cache-miss check allocates %.1f/request, budget %d", avg, allocBudgetMiss)
		}
	})
}

// One maximum-size body must not pin its buffers in a worker's scratch
// for the life of the process: the worker lets the oversize ones go
// (counted in pool.oversize_drops) and keeps less than a fixed cap. With
// one worker the next small request runs on that same scratch, and no
// other is ever made.
func TestScratchPoolRetentionCap(t *testing.T) {
	reg := obs.New()
	s := newAllocServer(t, Config{Workers: 1, CheckCacheEntries: -1, Metrics: reg})
	h := s.Handler()

	huge := bytes.Repeat([]byte(taintedSrc), (1<<20)/len(taintedSrc)) // just under the 1 MiB default MaxBodyBytes
	const retainCap = 4 << 20                                         // every buffer at its cap at once; the body grew the scratch past 30 MB
	serveOnce(t, h, huge)
	if got := reg.Snapshot().Counters[obs.CounterPoolOversizeDrops]; got == 0 {
		t.Fatalf("%s = 0 after a %d-byte body", obs.CounterPoolOversizeDrops, len(huge))
	}
	sc := s.scratch[0]
	if got := sc.Retained(); got == 0 || got > retainCap {
		t.Fatalf("worker scratch retains %d bytes after a %d-byte body, want (0, %d]", got, len(huge), retainCap)
	}
	serveOnce(t, h, []byte(taintedSrc))
	if got := sc.Retained(); got == 0 || got > retainCap {
		t.Fatalf("worker scratch retains %d bytes after the next request, want (0, %d]", got, retainCap)
	}
	if gets, news := reg.Counter(obs.CounterPoolGets), len(s.scratch); gets != 2 || news != 1 {
		t.Errorf("pool gets %d, news %d after two misses on one worker, want 2 and 1", gets, news)
	}
}

// A Server nothing references any more takes its workers with it: an
// idle worker holds only the job channel, so the collector reclaims a
// dropped Server — its trace ring, cache and scratches — and the
// finalizer closes the channel, which ends the workers' loops.
func TestDroppedServerEndsItsWorkers(t *testing.T) {
	s := newAllocServer(t, Config{Workers: 2, CheckCacheEntries: -1})
	serveOnce(t, s.Handler(), []byte(taintedSrc))
	jobs := s.jobs // the test's last reference to s
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		select {
		case _, open := <-jobs:
			if !open {
				return
			}
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("a dropped Server was never collected: something, an idle worker perhaps, still holds it")
		}
	}
}

// Misses run on the standing workers, not on a goroutine each: while
// four callers send 200 cache-off misses straight through the handler,
// the goroutine count never exceeds what it was once New had started
// the Workers by more than the callers plus one.
func TestMissesRunOnStandingWorkers(t *testing.T) {
	const workers, callers, each = 2, 4, 50
	before := runtime.NumGoroutine()
	s := newAllocServer(t, Config{Workers: workers, CheckCacheEntries: -1})
	h := s.Handler()
	start := runtime.NumGoroutine()
	if start > before+workers {
		t.Errorf("New started %d goroutines, want at most Workers = %d", start-before, workers)
	}

	peaks := make([]int, callers) // what each caller saw after each of its misses
	var wg sync.WaitGroup
	for c := range peaks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(taintedSrc)))
				if rec.Code != http.StatusOK {
					t.Errorf("miss status = %d", rec.Code)
					return
				}
				peaks[c] = max(peaks[c], runtime.NumGoroutine())
			}
		}()
	}
	wg.Wait()
	if got, limit := slices.Max(peaks), start+callers+1; got > limit {
		t.Errorf("%d goroutines during the misses, want at most %d: the %d at start, the %d callers and one",
			got, limit, start, callers)
	}
	if gets, news := s.cfg.Metrics.Counter(obs.CounterPoolGets), len(s.scratch); gets != callers*each || news != workers {
		t.Errorf("pool gets %d, news %d, want %d and %d", gets, news, callers*each, workers)
	}
}
