package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"seldon/internal/core"
	"seldon/internal/obs"
)

// Steady-state allocation budgets for the fast paths. These are
// regression tripwires, not targets: each is the measured count plus a
// quarter (28, 9, 12 and 148 when they were set), so an accidental
// per-request allocation — a dropped pool, a fresh buffer, a closure
// capture, a span or a metric name built per request again — fails
// loudly while compiler and runtime drift does not. "hit" goes through
// httptest's recorder and request constructor, which allocate 19 of its
// 28; "hit reuse" is the same request from a caller that keeps its
// request and writer, so the count is the handler's alone. Most of a
// miss is the front-end, whose scratch recycling took it down from 403;
// losing a slab there costs tens of allocations, not hundreds.
const (
	allocBudgetHit       = 35  // cache hit: request decode + key + splice
	allocBudgetHitReuse  = 11  // the same, without httptest's share
	allocBudgetCoalesced = 15  // follower: wait + splice only
	allocBudgetMiss      = 185 // full analysis with pooled scratch
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
			span := s.cfg.Metrics.Start(TimerCheck)
			s.followFlight(rec, ctx, root, span, "request.py", f)
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
		// Cache off: every request runs the full pipeline through the
		// scratch pool. The budget bounds the whole analysis, so losing
		// the pool (or a new per-file allocation in parse/dataflow) trips.
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

// One maximum-size body must not pin its buffers in the scratch pool for
// the life of the process: the returned scratch lets the oversize ones
// go (counted in pool.oversize_drops), keeps less than a fixed cap, and
// is the scratch the next small request reuses.
//
// A sync.Pool promises none of that round trip: a Put lands in a slot of
// the processor it ran on, where a Get from another does not look, and
// under -race a quarter of all Puts are dropped on purpose. So the test
// runs on one processor, and a round in which the pool lost the scratch —
// seen as such: it handed out a new, empty one — is played again. What
// must hold is that a scratch which does come back is capped, and served.
func TestScratchPoolRetentionCap(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection may empty a sync.Pool
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reg := obs.New()
	s := newAllocServer(t, Config{CheckCacheEntries: -1, Metrics: reg})
	h := s.Handler()

	huge := bytes.Repeat([]byte(taintedSrc), (1<<20)/len(taintedSrc)) // just under the 1 MiB default MaxBodyBytes
	const retainCap = 4 << 20                                         // every buffer at its cap at once; the body grew the scratch past 30 MB
	const rounds = 40                                                 // all lost under -race: (1 - (3/4)²)^40 < 1e-14
	for round := 1; ; round++ {
		serveOnce(t, h, huge)
		if got := reg.Snapshot().Counters[obs.CounterPoolOversizeDrops]; got == 0 {
			t.Fatalf("%s = 0 after a %d-byte body", obs.CounterPoolOversizeDrops, len(huge))
		}
		sc := s.scratchPool.Get().(*core.Scratch)
		if got := sc.Retained(); got > retainCap {
			t.Fatalf("pooled scratch retains %d bytes after a %d-byte body, cap %d", got, len(huge), retainCap)
		} else if got > 0 { // the served scratch, not a new one
			s.scratchPool.Put(sc)
			news := s.poolNews.Load()
			serveOnce(t, h, []byte(taintedSrc))
			if s.poolNews.Load() == news {
				return // the small request reused it
			}
		}
		if round == rounds {
			t.Fatalf("in %d rounds the pool never handed the served scratch to the next request", rounds)
		}
	}
}
