package core

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seldon/internal/dataflow"
	"seldon/internal/fpcache"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/pyparse"
)

// The corpus front-end: per-file parse + dataflow analysis, fanned out
// over a bounded worker pool. Files are independent (the analyzer keeps
// no cross-file state and the metrics registry is concurrency-safe), so
// the only ordering that matters is the merge: results land in a slice
// indexed by sorted file name, which keeps propgraph.Union input order,
// event IDs, and the parse-error list byte-identical to a sequential run
// at every worker count.

// FrontEnd holds per-file parse and dataflow results, ordered by sorted
// file name.
type FrontEnd struct {
	// Names lists the analyzed files in sorted order; Graphs is aligned
	// with it.
	Names  []string
	Graphs []*propgraph.Graph
	// Costs is each file's parse+dataflow cost, aligned with Names. For
	// a cache hit it is the cost recorded when the entry was produced —
	// the number a shard sidecar ships so downstream caches inherit
	// truthful accounting rather than the near-zero hit time.
	Costs []time.Duration
	// ParseErrorFiles names the files whose parse reported an error, in
	// sorted order; ParseErrs is aligned with it. Analysis still ran over
	// the recovered ASTs.
	ParseErrorFiles []string
	ParseErrs       []error
	// ParseTotal and AnalyzeTotal sum the per-file stage times (CPU time,
	// comparable across worker counts); Wall is the elapsed time of the
	// whole front-end section. Files served from the cache contribute
	// nothing to either total — their parse and dataflow never ran.
	ParseTotal   time.Duration
	AnalyzeTotal time.Duration
	Wall         time.Duration
	// Workers is the pool size actually used.
	Workers int

	// Cache activity for this run (all zero when Config.Cache is nil).
	// CacheBytes totals bytes read on hits plus written on misses;
	// CacheSaved sums the recorded analysis cost the hits avoided;
	// CacheWall is the time spent in cache lookups and write-backs.
	CacheHits   int
	CacheMisses int
	CacheBytes  int64
	CacheSaved  time.Duration
	CacheWall   time.Duration
}

// Scratch bundles the reusable per-file front-end state behind one
// Reset seam: what a parse allocates (tokens, AST nodes, node lists) and
// what a dataflow analysis allocates besides its graph. AnalyzeFiles
// gives every worker one for the length of a batch; callers that analyze
// a file per request keep them across calls (sync.Pool) and donate one
// through Config.Scratch. One Scratch serves one goroutine at a time.
// Nothing AnalyzeFiles returns points into a Scratch.
type Scratch struct {
	parse pyparse.Scratch
	flow  dataflow.Scratch
}

// Reset scrubs retained references while keeping grown capacity up to a
// fixed cap per buffer (half a MiB in all after a sixteen-file request,
// under 4 MiB whatever the inputs), so one huge input does not pin its
// buffers for the life of a pool. It returns the
// number of buffers let go for exceeding the cap.
func (s *Scratch) Reset() (dropped int) {
	return s.parse.Reset() + s.flow.Reset()
}

// Retained returns the bytes of buffer capacity the scratch holds.
func (s *Scratch) Retained() int { return s.parse.Retained() + s.flow.Retained() }

// fileOutcome is one worker's result for one file.
type fileOutcome struct {
	graph   *propgraph.Graph
	err     error
	parse   time.Duration
	analyze time.Duration

	hit        bool          // served from the cache
	saved      time.Duration // recorded cost a hit avoided
	cacheBytes int64         // entry bytes read (hit) or written (miss)
	cacheWall  time.Duration // time spent in Get/Put for this file
}

// workerCount resolves Config.Workers: 0 selects GOMAXPROCS, 1 runs
// everything on the caller's goroutine, and the pool never exceeds the
// number of files.
func (c Config) workerCount(files int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > files {
		w = files
	}
	if w < 1 {
		w = 1
	}
	return w
}

// AnalyzeFiles parses and dataflow-analyzes every file (name → source
// text), fanning per-file work over cfg.Workers goroutines. Per-file
// timings and parse-error counts stream into cfg.Metrics from the
// workers; everything order-sensitive (graph slice, error list, logs) is
// assembled after the join, so the result is deterministic — and
// byte-identical to Workers: 1 — at any worker count.
func AnalyzeFiles(files map[string]string, cfg Config) *FrontEnd {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)

	fe := &FrontEnd{
		Names:   names,
		Workers: cfg.workerCount(len(names)),
	}
	cfg.Metrics.Add(obs.CounterParseErrors, 0) // materialize the counter
	outcomes := make([]fileOutcome, len(names))
	process := func(i int, sc *Scratch) {
		name := names[i]
		var o fileOutcome
		if cfg.Cache != nil {
			t0 := time.Now()
			ent, ok := cfg.Cache.Get(name, files[name])
			o.cacheWall = time.Since(t0)
			if ok {
				o.hit = true
				o.graph = ent.Graph
				o.saved = ent.Cost
				o.cacheBytes = ent.Size
				if ent.ParseError != "" {
					o.err = errors.New(ent.ParseError)
					cfg.Metrics.Add(obs.CounterParseErrors, 1)
				}
				outcomes[i] = o
				return
			}
		}
		t0 := time.Now()
		// mod lives in sc.parse until the next parse on sc; it is dropped
		// at the end of this call, and the graph never points into it.
		mod, err := pyparse.ParseWith(&sc.parse, name, files[name])
		o.parse = time.Since(t0)
		o.err = err
		cfg.Metrics.ObserveDuration(obs.FileParse, o.parse)
		if err != nil {
			cfg.Metrics.Add(obs.CounterParseErrors, 1)
		}
		t0 = time.Now()
		o.graph = dataflow.AnalyzeModule(mod, dataflow.Options{Metrics: cfg.Metrics, Scratch: &sc.flow})
		o.analyze = time.Since(t0)
		cfg.Metrics.ObserveDuration(obs.FileAnalyze, o.analyze)
		if cfg.Cache != nil {
			t0 = time.Now()
			perr := ""
			if err != nil {
				perr = err.Error()
			}
			written, werr := cfg.Cache.Put(name, files[name], &fpcache.Entry{
				Graph: o.graph, ParseError: perr, Cost: o.parse + o.analyze,
			})
			o.cacheWall += time.Since(t0)
			if werr != nil {
				// A failed write-back costs the next run a re-analysis,
				// nothing more; this run's result is already in hand.
				cfg.Log.Log("cache.put.error", "file", name, "err", werr)
			}
			o.cacheBytes += written
		}
		outcomes[i] = o
	}

	// Every worker owns one Scratch for the whole batch. The caller is
	// worker 0 and uses the donated Config.Scratch when there is one.
	t0 := time.Now()
	var next atomic.Int64
	next.Store(-1)
	work := func(sc *Scratch) {
		for {
			i := int(next.Add(1))
			if i >= len(names) {
				return
			}
			process(i, sc)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < fe.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(new(Scratch))
		}()
	}
	sc := cfg.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	work(sc)
	wg.Wait()
	fe.Wall = time.Since(t0)

	fe.Graphs = make([]*propgraph.Graph, len(names))
	fe.Costs = make([]time.Duration, len(names))
	for i := range outcomes {
		o := &outcomes[i]
		fe.Graphs[i] = o.graph
		// Exactly one of (saved) and (parse+analyze) is nonzero: the
		// recorded cost for a hit, the measured cost for a miss.
		fe.Costs[i] = o.saved + o.parse + o.analyze
		fe.ParseTotal += o.parse
		fe.AnalyzeTotal += o.analyze
		if o.hit {
			fe.CacheHits++
		}
		fe.CacheSaved += o.saved
		fe.CacheBytes += o.cacheBytes
		fe.CacheWall += o.cacheWall
		if o.err != nil {
			fe.ParseErrorFiles = append(fe.ParseErrorFiles, names[i])
			fe.ParseErrs = append(fe.ParseErrs, o.err)
			cfg.Log.Log("parse.error", "file", names[i], "err", o.err)
		}
	}

	cfg.Metrics.Add(obs.CounterFilesAnalyzed, int64(len(names)))
	cfg.Metrics.ObserveDuration(obs.StageParse, fe.ParseTotal)
	cfg.Metrics.ObserveDuration(obs.StageDataflow, fe.AnalyzeTotal)
	cfg.Metrics.ObserveDuration(obs.StageFrontend, fe.Wall)
	cfg.Metrics.Set(obs.GaugeWorkers, float64(fe.Workers))
	// frontend.speedup is per-file CPU over wall. On a fully warm cache
	// run parse+dataflow never execute, so that ratio degenerates to 0 —
	// a misleading number for a run that was in fact at its fastest. The
	// gauge is published only when measurable; cache.speedup (derived
	// from the recorded original costs in the fpcache entries) carries
	// the warm-run story.
	if fe.ParseTotal+fe.AnalyzeTotal > 0 {
		cfg.Metrics.Set(obs.GaugeFrontendSpeedup, fe.Speedup())
	}
	cfg.Log.Log(obs.StageParse, "files", len(names),
		"dur", fe.ParseTotal.Round(time.Microsecond), "errors", len(fe.ParseErrorFiles))
	cfg.Log.Log(obs.StageDataflow, "dur", fe.AnalyzeTotal.Round(time.Microsecond))
	cfg.Log.Log(obs.StageFrontend, "workers", fe.Workers,
		"wall", fe.Wall.Round(time.Microsecond), "speedup", fe.Speedup())
	if cfg.Cache != nil {
		fe.CacheMisses = len(names) - fe.CacheHits
		cfg.Metrics.Add(obs.CounterCacheHits, int64(fe.CacheHits))
		cfg.Metrics.Add(obs.CounterCacheMisses, int64(fe.CacheMisses))
		cfg.Metrics.Add(obs.CounterCacheBytes, fe.CacheBytes)
		cfg.Metrics.ObserveDuration(obs.StageCache, fe.CacheWall)
		cfg.Metrics.Set(obs.GaugeCacheSaved, fe.CacheSaved.Seconds())
		cfg.Metrics.Set(obs.GaugeCacheSpeedup, fe.CacheSpeedup())
		cfg.Log.Log(obs.StageCache, "hits", fe.CacheHits, "misses", fe.CacheMisses,
			"bytes", fe.CacheBytes, "saved", fe.CacheSaved.Round(time.Microsecond),
			"dur", fe.CacheWall.Round(time.Microsecond))
	}
	return fe
}

// CacheSpeedup estimates the warm-run win: how much longer the front-end
// wall would have been had the cache hits been analyzed instead —
// (wall + saved) / wall. It is 1 on a fully cold run and grows with the
// hit rate; 0 when the wall is unmeasured.
func (fe *FrontEnd) CacheSpeedup() float64 {
	if fe.Wall <= 0 {
		return 0
	}
	return float64(fe.Wall+fe.CacheSaved) / float64(fe.Wall)
}

// Speedup reports the effective front-end parallelism: per-file CPU time
// over wall time (≈1 sequentially, approaching Workers under ideal
// scaling).
func (fe *FrontEnd) Speedup() float64 {
	if fe.Wall <= 0 {
		return 0
	}
	return float64(fe.ParseTotal+fe.AnalyzeTotal) / float64(fe.Wall)
}
