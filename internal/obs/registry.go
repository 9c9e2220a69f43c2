// Package obs is the pipeline's observability layer: a lightweight,
// dependency-free metrics registry (counters, gauges, timers with
// quantile histograms, and bounded traces), structured stage logging,
// snapshot export as text and JSON, and HTTP/pprof operator surfaces.
//
// Every method on *Registry and *Logger is safe on a nil receiver and
// returns immediately, so instrumented code needs no guards and pays
// (almost) nothing when no sink is attached.
package obs

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known metric names shared by the pipeline and the commands.
const (
	// The six pipeline stage timers (core.Learn / core.LearnFromSources).
	StageParse       = "stage.parse"       // lex + parse of all files
	StageDataflow    = "stage.dataflow"    // per-file dataflow analysis
	StageUnion       = "stage.union"       // propagation-graph union
	StageConstraints = "stage.constraints" // constraint system build
	StageSolve       = "stage.solve"       // projected-Adam solve
	StageSelect      = "stage.select"      // role selection (§7.1 backoff)

	// Sub-timers of the constraint build (constraints.Build passes).
	StageConstraintsFreq   = "stage.constraints.freq"   // pass 1: rep frequencies
	StageConstraintsFilter = "stage.constraints.filter" // pass 2: candidate filter
	StageConstraintsVars   = "stage.constraints.vars"   // pass 3: variable assignment
	StageConstraintsFlow   = "stage.constraints.flow"   // pass 4: flow constraints

	// The system a constraint build produced (constraints.System), and
	// what the analyzer produced it from (dataflow.AnalyzeModule).
	GaugeConstraintsVars       = "constraints.vars"               // score variables, one per (representation, role)
	GaugeConstraintsKnownVars  = "constraints.known_vars"         // of them, fixed at 0 or 1 by the seed
	GaugeConstraintsEvents     = "constraints.events"             // events that kept a candidate representation
	GaugeConstraintsTotal      = "constraints.total"              // flow constraints, the three patterns together
	GaugeConstraintsPatternA   = "constraints.pattern_a"          // Fig. 4a: a sanitizer before a sink needs a source
	GaugeConstraintsPatternB   = "constraints.pattern_b"          // Fig. 4b: a source before a sanitizer needs a sink
	GaugeConstraintsPatternC   = "constraints.pattern_c"          // Fig. 4c: a source before a sink needs a sanitizer
	GaugeConstraintsSkipped    = "constraints.skipped_components" // components over the component bound, given no constraints
	GaugeConstraintsWorkers    = "constraints.workers"            // goroutines the build ran on
	CounterDataflowModules     = "dataflow.modules"               // modules analyzed
	CounterDataflowFunctions   = "dataflow.functions"             // functions those modules define
	CounterDataflowGraphEvents = "dataflow.events"                // events in the graphs built from them

	// Symbol interning (propgraph.Interner) over the learned-on graph.
	// intern.symbols is the number of distinct representation strings;
	// intern.bytes_saved is the string bytes interning avoids storing —
	// total bytes of every representation occurrence minus the table's
	// store-each-string-once footprint.
	GaugeInternSymbols    = "intern.symbols"
	GaugeInternBytesSaved = "intern.bytes_saved"

	// Per-file timers.
	FileParse   = "file.parse"
	FileAnalyze = "file.analyze"

	// Front-end parallelism. stage.parse/stage.dataflow record summed
	// per-file times (comparable across worker counts); stage.frontend is
	// the wall time of the parallel parse+dataflow section.
	StageFrontend = "stage.frontend"
	// GaugeWorkers is the worker-pool size the front-end used.
	GaugeWorkers = "parallel.workers"
	// GaugeFrontendSpeedup is per-file CPU time over front-end wall time —
	// the effective parallel speedup of the run. It is omitted (not set
	// to zero) when unmeasurable: on a fully warm cache run no parse or
	// dataflow executes, so there is no CPU time to form the ratio from.
	GaugeFrontendSpeedup = "frontend.speedup"

	// Counters.
	CounterParseErrors   = "parse.errors"
	CounterFilesAnalyzed = "files.analyzed"

	// The checker (seldon check, seldond's /v1/check).
	StageTaint          = "stage.taint"   // taint.Analyze over the union
	CounterTaintReports = "taint.reports" // source→sink flows reported

	// Incremental front-end cache (internal/fpcache). stage.cache is the
	// summed time spent in cache lookups and write-backs; cache.bytes
	// totals bytes read on hits plus bytes written on misses.
	StageCache         = "stage.cache"
	CounterCacheHits   = "cache.hits"
	CounterCacheMisses = "cache.misses"
	CounterCacheBytes  = "cache.bytes"

	// The serving-side check-result cache (internal/checkcache behind
	// POST /v1/check): lookups and LRU pressure, counted by the service
	// (the cache keeps no counts), and its residency, which the cache
	// owns and the service mirrors after every insert.
	CounterCheckCacheHits      = "check.cache.hits"
	CounterCheckCacheMisses    = "check.cache.misses"
	CounterCheckCacheEvictions = "check.cache.evictions"
	GaugeCheckCacheBytes       = "check.cache.bytes"
	GaugeCheckCacheEntries     = "check.cache.entries"
	// CounterCheckCoalesced counts /v1/check requests that piggybacked on
	// a concurrent identical in-flight analysis (single-flight followers)
	// instead of taking a worker slot.
	CounterCheckCoalesced = "check.coalesced"

	// Scratch use on the serving hot path: pool.gets counts analyses run
	// (one scratch per standing worker serves them all; healthz prints
	// the worker count as pool.news). pool.oversize_drops counts the
	// buffers a worker's scratch let go because an unusually large
	// request had grown them past the retention cap.
	CounterPoolGets          = "pool.gets"
	CounterPoolOversizeDrops = "pool.oversize_drops"

	// Distributed corpus learning (internal/shard). The worker times its
	// slice analysis and artifact encode; the coordinator times artifact
	// decode and the shard-graph merge (validation + union + symbol
	// translation). shard.files and shard.bytes gauge the corpus slice a
	// worker analyzed — or, on the coordinator, the whole reassembled
	// corpus and the artifact bytes ingested.
	StageShardAnalyze = "stage.shard.analyze"
	StageShardEncode  = "stage.shard.encode"
	// StageShardDecode is the coordinator's whole gather: read, decode and
	// commit every artifact file of a glob. StageShardStream is one sample
	// per artifact read, verified and parsed by shard.ReadArtifact, inside
	// it.
	StageShardDecode = "stage.shard.decode"
	StageShardStream = "stage.shard.stream"
	TimerShardMerge  = "shard.merge"
	GaugeShardFiles  = "shard.files"
	GaugeShardBytes  = "shard.bytes"
	// GaugeShardSlices is the shard count a coordinator merged (or the
	// slice count a worker was partitioned under).
	GaugeShardSlices = "shard.slices"
	// CounterShardStreamBytes totals the encoded bytes of the artifacts
	// shard.ReadArtifact decoded; GaugeShardMergePeakBytes is the peak
	// encoded-artifact residency of the commit-queue merge (decoded but
	// not yet folded into the union) — the number that stays near one
	// slice when artifacts arrive in order, where a barrier held all N.
	CounterShardStreamBytes  = "shard.stream.bytes"
	GaugeShardMergePeakBytes = "shard.merge.peak_bytes"

	// The in-memory flow-constraint block cache (constraints.FlowCache)
	// an incremental session keeps between re-learns: spans whose cached
	// block was reused vs rebuilt on delta-aware constraint builds.
	CounterFlowCacheHits   = "flowcache.hits"
	CounterFlowCacheMisses = "flowcache.misses"

	// Incremental learning (internal/incr). The stage.incr.* timers
	// decompose one session operation: retract/splice are the delta
	// operations on the per-file graph set, rebuild is the union +
	// delta-aware constraint build (its two halves are also timed on
	// their own, rebuild.union and rebuild.constraints; rebuild is their
	// sum plus pin application), resolve the warm-started solve + role
	// selection.
	StageIncrRetract            = "stage.incr.retract"
	StageIncrSplice             = "stage.incr.splice"
	StageIncrRebuild            = "stage.incr.rebuild"
	StageIncrRebuildUnion       = "stage.incr.rebuild.union"
	StageIncrRebuildConstraints = "stage.incr.rebuild.constraints"
	StageIncrResolve            = "stage.incr.resolve"
	// incr.files is the session's current file count; incr.files_changed
	// the file names whose graph differs from what the last relearn saw.
	// incr.spans_reused / incr.constraints_reused report how much of the
	// flow-constraint pass the per-file block cache supplied on the last
	// build (constraints.BuildIncremental).
	GaugeIncrFiles             = "incr.files"
	GaugeIncrFilesChanged      = "incr.files_changed"
	GaugeIncrSpansReused       = "incr.spans_reused"
	GaugeIncrConstraintsReused = "incr.constraints_reused"
	// The session's standing union: re-learns that spliced the changed
	// files into it, and re-learns that built it from every file — the
	// first, and the fallbacks (an edit that would renumber symbols, dead
	// space past its share; the incr.relearn log line says which).
	CounterIncrUnionPatched = "incr.union.patched"
	CounterIncrUnionRebuilt = "incr.union.rebuilt"
	// GaugeSolverEpochs is the epoch count of the last solve.
	GaugeSolverEpochs = "solver.epochs"
	// The last solve's result (core.solveAndSelect): best objective and
	// its hinge part; the size of the system as handed over
	// (solver.constraints) and as the lp kernel folded it (solver.rows,
	// distinct rows — their ratio is the corpus's constraint duplication);
	// solver.active is how many constraints were still violated at the
	// final epoch, the length of the list the kernel's gradient walks.
	// select.predictions counts the (event, role) pairs selection kept.
	GaugeSolverObjective   = "solver.objective"
	GaugeSolverViolation   = "solver.violation"
	GaugeSolverConstraints = "solver.constraints"
	GaugeSolverRows        = "solver.rows"
	GaugeSolverActive      = "solver.active"
	// With a standing row table (lp.Options.Rows, the session's):
	// solver.rows_reused is how many constraints took their row from a
	// block the table remembered instead of being inserted into its trie,
	// solver.rows_dead how many trie nodes the table carries that no row
	// runs through; both 0 for a one-shot solve.
	GaugeSolverRowsReused  = "solver.rows_reused"
	GaugeSolverRowsDead    = "solver.rows_dead"
	GaugeSelectPredictions = "select.predictions"

	// The continuous-learning feedback loop (seldond /v1/feedback).
	// Counters split verdicts by direction; feedback.resolves counts the
	// incremental re-solves feedback triggered, each a new store
	// generation (store.reloads counts only /v1/reload); the
	// feedback.pinned_vars gauge mirrors incr.Session.Pins(), the pins the
	// session holds, dormant ones included, set wherever the set changes.
	CounterFeedbackAccepted = "feedback.accepted"
	CounterFeedbackRejected = "feedback.rejected"
	CounterFeedbackResolves = "feedback.resolves"
	GaugeFeedbackPinnedVars = "feedback.pinned_vars"

	// GaugePipelineWall is the end-to-end wall time of one seldon run in
	// seconds (front-end through role selection, plus shard decode/merge
	// on coordinator runs) — the number bench snapshots compare across
	// single-process and distributed runs.
	GaugePipelineWall = "pipeline.wall_s"

	// The solver convergence trace (one point per epoch).
	TraceSolver = "solver.convergence"
)

const (
	maxTimerSamples = 4096
	maxTracePoints  = 8192
)

// bucketBounds are the fixed log-spaced histogram boundaries every
// timer shares, in seconds: 1/2.5/5 per decade from 10µs to 100s, plus
// an implicit +Inf bucket. Fixed boundaries make cumulative counts
// mergeable across scrapes and give honest tail quantiles (p99/p999)
// even when the sample reservoir has decimated — the buckets count
// every observation exactly.
var bucketBounds = []float64{
	1e-05, 2.5e-05, 5e-05,
	1e-04, 2.5e-04, 5e-04,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 25, 50,
	100,
}

// BucketBounds returns a copy of the shared histogram boundaries, in
// seconds. Snapshot.Timers[*].Buckets is aligned with it (cumulative,
// +Inf implied by Count).
func BucketBounds() []float64 {
	out := make([]float64, len(bucketBounds))
	copy(out, bucketBounds)
	return out
}

// Registry is a concurrency-safe in-process metrics sink.
// The zero value is not usable; call New. A nil *Registry is a valid
// no-op sink.
//
// Counters and gauges are atomic cells found through a table that is
// never written in place: a request on the serving path updates nine of
// them, and with two callers the one lock they all used to take was a
// seventh of the CPU time of a cache hit, spent spinning. A name's first
// use replaces the table with a copy under mu; every later update is a
// map read and one atomic operation. Timers and traces, which do more
// per update than a lock costs, stay under mu.
type Registry struct {
	mu       sync.Mutex
	counters atomic.Pointer[map[string]*atomic.Int64]
	gauges   atomic.Pointer[map[string]*atomic.Uint64] // float64 bits
	timers   map[string]*timer
	traces   map[string]*trace
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		timers: make(map[string]*timer),
		traces: make(map[string]*trace),
	}
}

// cells is the current state of a table (nil before its first cell).
func cells[T any](table *atomic.Pointer[map[string]*T]) map[string]*T {
	if m := table.Load(); m != nil {
		return *m
	}
	return nil
}

// cell returns the named cell of a table, adding it — at zero — on
// first use.
func cell[T any](r *Registry, table *atomic.Pointer[map[string]*T], name string) *T {
	if c := cells(table)[name]; c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := cells(table)
	if c := old[name]; c != nil {
		return c
	}
	next := make(map[string]*T, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	c := new(T)
	next[name] = c
	table.Store(&next)
	return c
}

// timer accumulates exact count/sum/min/max, a deterministic
// stride-decimated sample reservoir for mid quantiles (p50/p95), and a
// fixed log-spaced bucket histogram counting every observation — the
// source of tail quantiles (p99) and the Prometheus exposition.
type timer struct {
	count   int64
	sum     float64
	min     float64
	max     float64
	seen    int64 // observations since stride last doubled
	stride  int64 // record every stride-th observation
	sample  []float64
	buckets []int64 // per-bucket counts, len(bucketBounds)+1; last is +Inf
}

// trace is a bounded append-only series of labeled points. When full it
// keeps every other point and doubles the stride, so the retained points
// stay roughly uniform over the run — deterministically.
type trace struct {
	seen   int64
	stride int64
	points []TracePoint
}

// TracePoint is one entry of a trace series.
type TracePoint struct {
	Step   int64              `json:"step"`
	Values map[string]float64 `json:"values"`
}

// Add increments a counter by delta, creating it at zero first. Calling
// Add with delta 0 just materializes the counter in snapshots.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	cell(r, &r.counters, name).Add(delta)
}

// Set sets a gauge to v.
func (r *Registry) Set(name string, v float64) {
	if r == nil {
		return
	}
	cell(r, &r.gauges, name).Store(math.Float64bits(v))
}

// GaugeAdd adjusts a gauge by delta — the up/down counterpart of Set,
// for level-style series (in-flight requests) fed from many goroutines.
func (r *Registry) GaugeAdd(name string, delta float64) {
	if r == nil {
		return
	}
	g := cell(r, &r.gauges, name)
	for {
		old := g.Load()
		if g.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Observe records one raw value into the named histogram/timer.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	t := r.timers[name]
	if t == nil {
		t = &timer{min: math.Inf(1), max: math.Inf(-1), stride: 1,
			buckets: make([]int64, len(bucketBounds)+1)}
		r.timers[name] = t
	}
	t.count++
	t.sum += v
	if v < t.min {
		t.min = v
	}
	if v > t.max {
		t.max = v
	}
	t.buckets[sort.SearchFloat64s(bucketBounds, v)]++
	if t.seen%t.stride == 0 {
		t.sample = append(t.sample, v)
		if len(t.sample) > maxTimerSamples {
			half := t.sample[:0]
			for i := 0; i < len(t.sample); i += 2 {
				half = append(half, t.sample[i])
			}
			t.sample = half
			t.stride *= 2
			t.seen = 0
		}
	}
	t.seen++
	r.mu.Unlock()
}

// ObserveDuration records a duration, in seconds, into the named timer.
func (r *Registry) ObserveDuration(name string, d time.Duration) {
	r.Observe(name, d.Seconds())
}

// AppendTrace appends one point to the named trace series.
func (r *Registry) AppendTrace(name string, step int64, values map[string]float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	tr := r.traces[name]
	if tr == nil {
		tr = &trace{stride: 1}
		r.traces[name] = tr
	}
	if tr.seen%tr.stride == 0 {
		tr.points = append(tr.points, TracePoint{Step: step, Values: values})
		if len(tr.points) > maxTracePoints {
			half := tr.points[:0]
			for i := 0; i < len(tr.points); i += 2 {
				half = append(half, tr.points[i])
			}
			tr.points = half
			tr.stride *= 2
			tr.seen = 0
		}
	}
	tr.seen++
	r.mu.Unlock()
}

// Span measures one region of time against a timer metric.
type Span struct {
	r    *Registry
	name string
	t0   time.Time
}

// Start opens a span recording into the named timer when ended. On a nil
// registry it returns an inert span without reading the clock.
func (r *Registry) Start(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, t0: time.Now()}
}

// End closes the span and records the elapsed time; it returns the
// elapsed duration (zero for inert spans).
func (s Span) End() time.Duration {
	if s.r == nil {
		return 0
	}
	d := time.Since(s.t0)
	s.r.ObserveDuration(s.name, d)
	return d
}

// TimerStats summarizes one timer for export. P50/P95 come from the
// decimated sample reservoir; P99 is interpolated from the bucket
// histogram (clamped to the exact min/max), so the tail stays honest
// at any observation count. Buckets holds the cumulative bucket counts
// aligned with BucketBounds() — the +Inf bucket is Count — and is nil
// for an empty timer.
type TimerStats struct {
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of the registry contents.
type Snapshot struct {
	Counters map[string]int64        `json:"counters"`
	Gauges   map[string]float64      `json:"gauges"`
	Timers   map[string]TimerStats   `json:"timers"`
	Traces   map[string][]TracePoint `json:"traces"`
}

// Snapshot copies out the current registry state. Safe on nil (returns
// an empty snapshot).
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
		Timers:   map[string]TimerStats{},
		Traces:   map[string][]TracePoint{},
	}
	if r == nil {
		return s
	}
	for k, c := range cells(&r.counters) {
		s.Counters[k] = c.Load()
	}
	for k, g := range cells(&r.gauges) {
		s.Gauges[k] = math.Float64frombits(g.Load())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, t := range r.timers {
		s.Timers[k] = t.stats()
	}
	for k, tr := range r.traces {
		pts := make([]TracePoint, len(tr.points))
		copy(pts, tr.points)
		s.Traces[k] = pts
	}
	return s
}

func (t *timer) stats() TimerStats {
	st := TimerStats{Count: t.count, Sum: t.sum, Min: t.min, Max: t.max}
	if t.count == 0 {
		st.Min, st.Max = 0, 0
		return st
	}
	sorted := make([]float64, len(t.sample))
	copy(sorted, t.sample)
	sort.Float64s(sorted)
	st.P50 = quantile(sorted, 0.50)
	st.P95 = quantile(sorted, 0.95)
	st.P99 = t.bucketQuantile(0.99)
	st.Buckets = make([]int64, len(bucketBounds))
	var cum int64
	for i := range bucketBounds {
		cum += t.buckets[i]
		st.Buckets[i] = cum
	}
	return st
}

// bucketQuantile interpolates the q-th quantile from the bucket
// histogram (Prometheus histogram_quantile semantics: linear within
// the containing bucket), clamped to the exact observed min/max so
// coarse buckets never report values outside the data.
func (t *timer) bucketQuantile(q float64) float64 {
	rank := q * float64(t.count)
	var cum int64
	lower := 0.0
	for i, c := range t.buckets {
		cum += c
		if float64(cum) < rank {
			if i < len(bucketBounds) {
				lower = bucketBounds[i]
			}
			continue
		}
		v := t.max // +Inf bucket: the exact max is the best honest answer
		if i < len(bucketBounds) {
			upper := bucketBounds[i]
			v = upper
			if c > 0 {
				frac := (rank - float64(cum-c)) / float64(c)
				v = lower + (upper-lower)*frac
			}
		}
		return math.Min(math.Max(v, t.min), t.max)
	}
	return t.max
}

// Timer returns the current stats of one named timer without copying
// the whole registry — cheap enough for per-request decisions (e.g.
// computing Retry-After from the observed p50). ok is false when the
// timer has never been observed (or the registry is nil).
func (r *Registry) Timer(name string) (TimerStats, bool) {
	if r == nil {
		return TimerStats{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.timers[name]
	if t == nil {
		return TimerStats{}, false
	}
	return t.stats(), true
}

// Counter returns the current value of one named counter — the
// counterpart of Timer, for readers that want one number and not a
// snapshot. It is 0 when the counter was never added to (or the registry
// is nil).
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	if c := cells(&r.counters)[name]; c != nil {
		return c.Load()
	}
	return 0
}

// quantile uses nearest-rank interpolation over a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// JSON renders the snapshot as indented JSON.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// WriteJSON writes the current snapshot to path. Safe on nil (writes an
// empty snapshot).
func (r *Registry) WriteJSON(path string) error {
	data, err := r.Snapshot().JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
