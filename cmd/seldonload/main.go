// Command seldonload drives load against a seldond instance and
// reports the latency distribution — an ad-hoc SLO probe and the load
// smoke; gated serving numbers come from bench/ (check_miss, check_dup).
//
// Two loop disciplines:
//
//   - closed loop (default): -c workers each keep exactly one request
//     in flight, so offered load adapts to service speed — measures
//     capacity.
//   - open loop (-rps): requests fire on a fixed schedule regardless of
//     completions, so queueing delay shows up in the tail instead of
//     being absorbed by the load generator — measures SLO compliance at
//     a target arrival rate.
//
// Request bodies cycle through a synthetic corpus (internal/corpus), so
// checks exercise the real parse → dataflow → taint path with mixed
// shapes rather than one cached input. A warmup window is measured but
// discarded from the report.
//
// -dup P skews the body mix toward duplicates: with probability P a
// request re-sends one of a small hot head of the corpus, Zipf-weighted
// (rank r drawn ∝ 1/r), instead of cycling — the shape real serving
// traffic has, and the one the server's check-result cache and
// single-flight coalescing exist for. The draw is a deterministic hash
// of the request index, so two runs offer the same sequence.
//
// Usage:
//
//	seldonload -addr http://127.0.0.1:8647 -c 8 -duration 10s
//	seldonload -addr :8647 -rps 200 -duration 30s -json
//	seldonload -specs specs.json -duration 2s          # self-serve: boots
//	                                                   # seldond in-process on :0
//	seldonload -specs specs.json -duration 2s -smoke   # exit 1 on any 5xx
//	                                                   # or an empty trace ring
//	seldonload -specs specs.json -dup 0.8 -json        # duplicate-heavy mix
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seldon/internal/checkcache"
	"seldon/internal/corpus"
	"seldon/internal/service"
	"seldon/internal/specio"
)

// Report is the machine-readable run summary (-json).
type Report struct {
	Mode        string  `json:"mode"` // "closed" or "open"
	TargetRPS   float64 `json:"target_rps,omitempty"`
	Concurrency int     `json:"concurrency,omitempty"`
	DurationS   float64 `json:"duration_s"`
	Requests    int     `json:"requests"`
	RPS         float64 `json:"rps"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxMS       float64 `json:"max_ms"`
	OK          int     `json:"ok"`
	Rejected429 int     `json:"rejected_429"`
	Status4xx   int     `json:"status_4xx"`
	Status5xx   int     `json:"status_5xx"`
	NetErrors   int     `json:"net_errors"`
	Timeouts    int     `json:"timeouts"`
	TraceRing   int     `json:"trace_ring,omitempty"`

	// DupFraction echoes -dup; the cache fields are read back from the
	// target's /v1/healthz after the run (absent when the target serves
	// with its check cache disabled).
	DupFraction  float64 `json:"dup_fraction,omitempty"`
	CacheHits    int64   `json:"cache_hits,omitempty"`
	CacheMisses  int64   `json:"cache_misses,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
	Coalesced    int64   `json:"coalesced,omitempty"`
}

// collector accumulates one sample per completed request; samples that
// started inside the warmup window are recorded but later discarded.
type collector struct {
	mu      sync.Mutex
	samples []sample
}

type sample struct {
	start   time.Time
	latency time.Duration
	status  int // HTTP status; 0 = transport error, -1 = client timeout
}

func (c *collector) record(s sample) {
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

func main() {
	var (
		addr     = flag.String("addr", "", "target base URL or :port of a running seldond")
		specs    = flag.String("specs", "", "self-serve mode: boot the service in-process on 127.0.0.1:0 from this spec store")
		rps      = flag.Float64("rps", 0, "open-loop target arrival rate (0 = closed loop)")
		conc     = flag.Int("c", 8, "closed-loop workers / open-loop outstanding cap")
		duration = flag.Duration("duration", 10*time.Second, "measured run length (after warmup)")
		warmup   = flag.Duration("warmup", time.Second, "warmup window, measured but discarded")
		nfiles   = flag.Int("corpus", 32, "synthetic corpus size cycled through as request bodies")
		dup      = flag.Float64("dup", 0, "fraction of requests re-sending a Zipf-weighted hot body (0 = cycle the corpus)")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request client timeout")
		jsonOut  = flag.Bool("json", false, "print the report as JSON instead of text")
		cacheEnt = flag.Int("check-cache-entries", checkcache.DefaultMaxEntries,
			"self-serve: check-result cache entry cap (0 disables cache and coalescing)")
		cacheBytes = flag.Int64("check-cache-bytes", checkcache.DefaultMaxBytes,
			"self-serve: check-result cache byte cap (0 disables cache and coalescing)")
		smoke = flag.Bool("smoke", false, "exit 1 on any 5xx/transport error, an empty trace ring, or (with -dup) a cold cache")
	)
	flag.Parse()
	if *dup < 0 || *dup > 1 {
		fatal(fmt.Errorf("-dup must be in [0, 1]"))
	}

	if *addr == "" && *specs == "" {
		fatal(fmt.Errorf("need -addr (running seldond) or -specs (self-serve)"))
	}

	base := *addr
	var shutdown func()
	if *specs != "" {
		var err error
		base, shutdown, err = selfServe(*specs, *cacheEnt, *cacheBytes)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
	}
	base = normalizeBase(base)

	pick := bodyPicker(corpusBodies(*nfiles), *dup)
	client := &http.Client{
		Timeout:   *timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: *conc + 8},
	}
	if err := waitReady(client, base, 10*time.Second); err != nil {
		fatal(err)
	}

	col := &collector{}
	start := time.Now()
	measureFrom := start.Add(*warmup)
	deadline := start.Add(*warmup + *duration)
	fire := func(i int) {
		body := pick(i)
		s := sample{start: time.Now()}
		resp, err := client.Post(base+"/v1/check?dedupe=1", "text/x-python",
			bytes.NewReader([]byte(body)))
		s.latency = time.Since(s.start)
		switch {
		case err != nil && strings.Contains(err.Error(), "Client.Timeout"):
			s.status = -1
		case err != nil:
			s.status = 0
		default:
			s.status = resp.StatusCode
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		col.record(s)
	}

	mode := "closed"
	if *rps > 0 {
		mode = "open"
		runOpen(fire, *rps, deadline)
	} else {
		runClosed(fire, *conc, deadline)
	}

	rep := summarize(col, measureFrom, *duration)
	rep.Mode = mode
	rep.TargetRPS = *rps
	if mode == "closed" {
		rep.Concurrency = *conc
	}
	rep.TraceRing = traceRingSize(client, base)
	rep.DupFraction = *dup
	fillCacheStats(client, base, &rep)

	if *jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	} else {
		printText(rep)
	}

	if shutdown != nil {
		shutdown()
		shutdown = nil
	}
	if *smoke {
		if bad := rep.Status5xx + rep.NetErrors + rep.Timeouts; bad > 0 {
			fatal(fmt.Errorf("smoke: %d failed requests (5xx=%d net=%d timeout=%d)",
				bad, rep.Status5xx, rep.NetErrors, rep.Timeouts))
		}
		if rep.TraceRing == 0 {
			fatal(fmt.Errorf("smoke: trace ring is empty after %d requests", rep.Requests))
		}
		if rep.OK == 0 {
			fatal(fmt.Errorf("smoke: no successful requests"))
		}
		// A duplicate-heavy mix against a cache-enabled target must show
		// actual reuse — a cold hit rate means the cache key or the
		// invalidation went wrong, not that the run was merely slow.
		if *dup > 0 && *cacheEnt > 0 && *cacheBytes > 0 {
			if rep.CacheHits == 0 {
				fatal(fmt.Errorf("smoke: -dup %.2f run finished with zero cache hits (misses=%d)",
					*dup, rep.CacheMisses))
			}
		}
		fmt.Fprintln(os.Stderr, "seldonload: smoke OK")
	}
}

// bodyPicker maps a request index to its body. With dup = 0 the corpus
// cycles; otherwise a deterministic hash of the index decides between a
// Zipf-weighted draw from the hot head (probability dup) and the cycle,
// so every run offers the same request sequence.
func bodyPicker(bodies []string, dup float64) func(int) string {
	if dup <= 0 {
		return func(i int) string { return bodies[i%len(bodies)] }
	}
	hot := len(bodies)
	if hot > 8 {
		hot = 8
	}
	cum := make([]float64, hot)
	total := 0.0
	for r := 0; r < hot; r++ {
		total += 1 / float64(r+1)
		cum[r] = total
	}
	return func(i int) string {
		if unitFloat(mix(uint64(i)*2+1)) >= dup {
			return bodies[i%len(bodies)]
		}
		u := unitFloat(mix(uint64(i)*2+2)) * total
		for r := 0; r < hot; r++ {
			if u <= cum[r] {
				return bodies[r]
			}
		}
		return bodies[hot-1]
	}
}

// mix is a splitmix64-style finalizer: a stateless stand-in for a
// seeded RNG that keeps the request sequence identical across runs and
// Go versions.
func mix(x uint64) uint64 {
	x = x*6364136223846793005 + 1442695040888963407
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// unitFloat maps 53 high bits onto [0, 1).
func unitFloat(x uint64) float64 { return float64(x>>11) / float64(1<<53) }

// fillCacheStats copies the target's check-cache counters into the
// report (left zero when the target disables the cache or is not a
// seldond).
func fillCacheStats(client *http.Client, base string, rep *Report) {
	resp, err := client.Get(base + "/v1/healthz")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var h service.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.CheckCache == nil {
		return
	}
	rep.CacheHits = h.CheckCache.Hits
	rep.CacheMisses = h.CheckCache.Misses
	rep.CacheHitRate = h.CheckCache.HitRate
	rep.Coalesced = h.CheckCache.Coalesced
}

// runClosed keeps exactly workers requests in flight until deadline.
func runClosed(fire func(int), workers int, deadline time.Time) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				fire(int(next.Add(1)))
			}
		}()
	}
	wg.Wait()
}

// runOpen fires on a fixed schedule until deadline, independent of
// completions — in-flight requests are unbounded by design so service
// slowdown surfaces as tail latency, not reduced offered load.
func runOpen(fire func(int), rps float64, deadline time.Time) {
	interval := time.Duration(float64(time.Second) / rps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var wg sync.WaitGroup
	i := 0
	for now := range tick.C {
		if now.After(deadline) {
			break
		}
		i++
		wg.Add(1)
		go func(i int) { defer wg.Done(); fire(i) }(i)
	}
	wg.Wait()
}

// summarize folds the post-warmup samples into a Report.
func summarize(col *collector, measureFrom time.Time, duration time.Duration) Report {
	col.mu.Lock()
	defer col.mu.Unlock()
	var lat []float64
	rep := Report{DurationS: duration.Seconds()}
	for _, s := range col.samples {
		if s.start.Before(measureFrom) {
			continue
		}
		rep.Requests++
		switch {
		case s.status == -1:
			rep.Timeouts++
		case s.status == 0:
			rep.NetErrors++
		case s.status/100 == 2:
			rep.OK++
		case s.status == http.StatusTooManyRequests:
			rep.Rejected429++
		case s.status/100 == 4:
			rep.Status4xx++
		case s.status/100 == 5:
			rep.Status5xx++
		}
		if s.status/100 == 2 {
			lat = append(lat, float64(s.latency)/float64(time.Millisecond))
		}
	}
	if duration > 0 {
		rep.RPS = float64(rep.Requests) / duration.Seconds()
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		rep.P50MS = quantile(lat, 0.50)
		rep.P95MS = quantile(lat, 0.95)
		rep.P99MS = quantile(lat, 0.99)
		rep.MaxMS = lat[len(lat)-1]
	}
	return rep
}

// quantile returns the q-th sample quantile of sorted values
// (nearest-rank, the convention load tools report).
func quantile(sorted []float64, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func printText(r Report) {
	fmt.Printf("mode %s", r.Mode)
	if r.Mode == "open" {
		fmt.Printf(" (target %.0f rps)", r.TargetRPS)
	} else {
		fmt.Printf(" (%d workers)", r.Concurrency)
	}
	fmt.Printf(", %gs measured\n", r.DurationS)
	fmt.Printf("requests %d (%.1f rps): %d ok, %d rejected (429), %d 4xx, %d 5xx, %d net errors, %d timeouts\n",
		r.Requests, r.RPS, r.OK, r.Rejected429, r.Status4xx, r.Status5xx, r.NetErrors, r.Timeouts)
	fmt.Printf("latency ms: p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
		r.P50MS, r.P95MS, r.P99MS, r.MaxMS)
	if r.TraceRing > 0 {
		fmt.Printf("server trace ring holds %d traces (/debug/traces)\n", r.TraceRing)
	}
	if r.CacheHits+r.CacheMisses > 0 {
		fmt.Printf("check cache: %d hits / %d misses (%.0f%% hit rate), %d coalesced\n",
			r.CacheHits, r.CacheMisses, 100*r.CacheHitRate, r.Coalesced)
	}
}

// normalizeBase accepts ":8647", "host:8647", or a full URL and
// returns a scheme-qualified base with no trailing slash.
func normalizeBase(base string) string {
	base = strings.TrimSuffix(base, "/")
	if strings.HasPrefix(base, ":") {
		base = "127.0.0.1" + base
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base
}

// selfServe boots the service in-process on a loopback port so smoke
// and bench runs need no external seldond or port coordination. The
// cache caps follow the seldond CLI convention: 0 disables.
func selfServe(specsPath string, cacheEntries int, cacheBytes int64) (base string, shutdown func(), err error) {
	sp, meta, err := specio.Load(specsPath)
	if err != nil {
		return "", nil, err
	}
	if cacheEntries <= 0 || cacheBytes <= 0 {
		cacheEntries, cacheBytes = -1, -1
	}
	srv := service.New(service.Config{
		Spec: sp, Meta: meta, StorePath: specsPath,
		CheckCacheEntries: cacheEntries, CheckCacheBytes: cacheBytes,
	})
	httpSrv, _, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	fmt.Fprintf(os.Stderr, "seldonload: self-serving %s on %s\n", specsPath, httpSrv.Addr)
	return "http://" + httpSrv.Addr, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}, nil
}

// waitReady polls /v1/readyz until the target answers 200.
func waitReady(client *http.Client, base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := client.Get(base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("target %s not ready: %w", base, err)
			}
			return fmt.Errorf("target %s not ready", base)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// traceRingSize reports how many traces the server currently buffers
// (0 if /debug/traces is unreachable — e.g. a non-seldond target).
func traceRingSize(client *http.Client, base string) int {
	resp, err := client.Get(base + "/debug/traces?limit=1")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var dump struct {
		Buffered int `json:"buffered"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return 0
	}
	return dump.Buffered
}

// corpusBodies renders a synthetic corpus to a deterministic slice of
// request bodies (sorted by filename).
func corpusBodies(n int) []string {
	files := corpus.Generate(corpus.Config{Files: n}).FileMap()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	bodies := make([]string, len(names))
	for i, name := range names {
		bodies[i] = files[name]
	}
	return bodies
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seldonload:", err)
	os.Exit(1)
}
