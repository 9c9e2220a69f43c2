// Command seldon runs end-to-end taint-specification inference: it parses
// a directory of Python files (or generates a synthetic corpus), learns
// likely sources, sanitizers, and sinks from a seed specification, and
// prints the inferred specifications sorted by confidence.
//
// Usage:
//
//	seldon -dir path/to/python/repo [-seedfile seed.spec] [-threshold 0.1]
//	seldon -generate 400           # run on a synthetic corpus instead
//	seldon -generate 240 -o specs.json   # persist a spec store for seldond
//
// Distributed learning: seldon is also the coordinator of the
// seldon-shard worker fleet. -shards-in ingests pre-produced shard
// artifacts (validated, merged in slice order, learned once);
// -exec-shards spawns N local seldon-shard subprocesses over pipes —
// the same flow without a cluster. Either way the saved spec store is
// byte-identical to a single-process run on the whole corpus.
//
//	seldon -shards-in 'parts/*.shard' -seedfile seed.spec -o specs.json
//	seldon -generate 240 -exec-shards 4 -shard-bin ./seldon-shard -o specs.json
//
// Observability:
//
//	seldon -generate 400 -v                      # per-stage log + interning summary
//	seldon -generate 400 -metrics-json m.json    # metrics snapshot at exit
//	seldon -generate 400 -http :8080             # /metrics + /debug/pprof
//	seldon -generate 400 -cpuprofile cpu.out -memprofile mem.out
//
// Incremental analysis: -cache-dir keeps per-file front-end results in a
// content-addressed on-disk cache, so re-learning after editing a few
// files only re-parses those files. Results are bitwise identical with
// and without the cache; -cache-clear empties the directory first. With
// -exec-shards the directory is shared by the worker subprocesses.
//
//	seldon -dir repo -cache-dir ~/.cache/seldon
//	seldon -dir repo -cache-dir ~/.cache/seldon -cache-clear
//
// Continuous learning: -session-dir persists the whole learning state
// (per-file propagation graphs, previous solution, feedback pins)
// between runs. A re-run diffs the corpus against the session, splices
// only changed files, reuses the cached constraint blocks of unchanged
// ones, and warm-starts the solver from the previous solution — same
// store as a from-scratch run, a fraction of the work. -feedback
// replays operator verdicts (accept/reject of a (symbol, role)) into
// the session as hard constraints before re-learning; the same session
// directory powers seldond's live /v1/feedback endpoint.
//
//	seldon -generate 240 -session-dir .seldon-session -o specs.json
//	seldon -dir repo -session-dir s -feedback verdicts.json -o specs.json
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/fpcache"
	"seldon/internal/obs"
	"seldon/internal/obs/trace"
	"seldon/internal/propgraph"
	"seldon/internal/shard"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

func main() {
	var (
		dir       = flag.String("dir", "", "directory of .py files to learn from")
		generate  = flag.Int("generate", 0, "generate a synthetic corpus of N files instead of -dir")
		seedFile  = flag.String("seedfile", "", "seed specification (o:/a:/i:/b: lines); default: the paper's App. B seed")
		threshold = flag.Float64("threshold", 0.1, "score threshold for selecting roles")
		lambda    = flag.Float64("lambda", 0.1, "L1 regularization weight")
		cval      = flag.Float64("c", 0.75, "implication-strength constant C")
		limit     = flag.Int("top", 50, "print at most this many inferred specs per role")
		workers   = flag.Int("workers", 0, "front-end worker goroutines (0 = GOMAXPROCS, 1 = sequential); results are identical at every count")
		out       = flag.String("out", "", "write the merged (seed + learned) specification to this file, for taintcheck -spec")
		store     = flag.String("o", "", "write the merged specification as a versioned JSON spec store (with provenance metadata), for seldond -specs")

		shardsIn   = flag.String("shards-in", "", "coordinate: glob of shard artifacts (from seldon-shard) to merge and learn from")
		execShards = flag.Int("exec-shards", 0, "coordinate: spawn N local seldon-shard subprocesses over -dir/-generate and merge their artifacts")
		shardBin   = flag.String("shard-bin", "seldon-shard", "seldon-shard binary for -exec-shards")
		shipCache  = flag.Bool("ship-cache", false, "coordinate: have workers attach fpcache sidecars to their artifacts, ingested into -cache-dir")
		flowCache  = flag.String("flowcache", "", "coordinate: persistent flow-constraint block cache file (loaded before the build, saved after; stale or corrupt files load as empty)")

		cacheDir   = flag.String("cache-dir", "", "persistent per-file analysis cache directory (content-addressed; results are bitwise identical with or without it)")
		cacheClear = flag.Bool("cache-clear", false, "empty -cache-dir before the run")

		sessionDir   = flag.String("session-dir", "", "persistent incremental-learning session directory: re-learns only what changed since the last run there (results identical to from-scratch)")
		feedbackFile = flag.String("feedback", "", "JSON file of {symbol, role, verdict} objects replayed into the session as hard pins (requires -session-dir)")

		verbose     = flag.Bool("v", false, "log pipeline stages and parse errors to stderr")
		metricsJSON = flag.String("metrics-json", "", "write a JSON metrics snapshot to this file at exit")
		httpAddr    = flag.String("http", "", "serve /metrics and /debug/pprof/ on this address during the run (e.g. :8080)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	var logger *obs.Logger
	if *verbose {
		logger = obs.NewLogger(os.Stderr)
	}
	var reg *obs.Registry
	if *metricsJSON != "" || *httpAddr != "" {
		reg = obs.New()
	}
	if *httpAddr != "" {
		srv, errc, err := obs.Serve(*httpAddr, reg)
		if err != nil {
			fatal(err) // fail fast: busy port, bad address
		}
		go func() {
			if err := <-errc; err != nil {
				fatal(err)
			}
		}()
		logger.Log("http.listen", "addr", srv.Addr)
	}
	stopCPU := func() error { return nil }
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		stopCPU = stop
	}
	if *metricsJSON != "" {
		// Fail fast on an unwritable path rather than after the run.
		if err := reg.WriteJSON(*metricsJSON); err != nil {
			fatal(err)
		}
	}

	coordinating := *shardsIn != "" || *execShards > 0
	if *feedbackFile != "" && *sessionDir == "" {
		fatal(fmt.Errorf("-feedback requires -session-dir"))
	}
	if *sessionDir != "" && coordinating {
		fatal(fmt.Errorf("-session-dir does not compose with shard coordination"))
	}
	if *flowCache != "" && !coordinating {
		fatal(fmt.Errorf("-flowcache requires shard coordination (-shards-in or -exec-shards); -session-dir persists it on the incremental path"))
	}
	if *shipCache && *execShards <= 0 {
		fatal(fmt.Errorf("-ship-cache requires -exec-shards (pre-produced -shards-in artifacts carry sidecars or not; -cache-dir ingests them either way)"))
	}

	// Every run is one trace: the pipeline stages become child spans so
	// -v can print where the time went as a tree, mirroring what seldond
	// serves per-request from /debug/traces.
	tracer := trace.New(4)
	rootName := "seldon.learn"
	if coordinating {
		rootName = "seldon.coordinate"
	}
	rootSpan := tracer.StartRoot(rootName)
	cfg := core.Config{Threshold: *threshold, Workers: *workers, Metrics: reg, Log: logger, Span: rootSpan}
	cfg.Constraints.Lambda = *lambda
	cfg.Constraints.C = *cval
	if *cacheDir != "" && !coordinating {
		// A coordinator never runs the front-end itself; with
		// -exec-shards the directory is handed to the workers instead.
		cache, err := fpcache.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
		if *cacheClear {
			if err := cache.Clear(); err != nil {
				fatal(err)
			}
		}
		cfg.Cache = cache
	}

	// Both paths converge on a Result plus the corpus identity the spec
	// store's provenance block records.
	var (
		res         *core.Result
		seedSpec    *spec.Spec
		nFiles      int
		fingerprint string
		summary     string
	)
	runStart := time.Now()
	if coordinating {
		var err error
		seedSpec, err = coordinatorSeed(*seedFile, *generate)
		if err != nil {
			fatal(err)
		}
		var mres *shard.MergeResult
		res, mres, err = coordinate(coordinateConfig{
			Pattern:   *shardsIn,
			ExecN:     *execShards,
			Bin:       *shardBin,
			Dir:       *dir,
			Generate:  *generate,
			Workers:   *workers,
			CacheDir:  *cacheDir,
			ShipCache: *shipCache,
			FlowCache: *flowCache,
		}, seedSpec, cfg)
		if err != nil {
			fatal(err)
		}
		nFiles = len(mres.Files)
		fingerprint = mres.CorpusFingerprint
		summary = fmt.Sprintf("coordinated %d shards: %d files", mres.Slices, nFiles)
	} else {
		files, seed, err := loadInput(*dir, *generate, *seedFile)
		if err != nil {
			fatal(err)
		}
		seedSpec = seed
		rootSpan.SetAttr("files", len(files))
		if *sessionDir != "" {
			res, err = runSession(*sessionDir, *feedbackFile, files, seedSpec, cfg)
			if err != nil {
				fatal(err)
			}
			summary = fmt.Sprintf("re-learned %d files incrementally", len(files))
		} else {
			res = core.LearnFromSources(files, seedSpec, cfg)
			summary = fmt.Sprintf("analyzed %d files", len(files))
		}
		nFiles = len(files)
		fingerprint = specio.Fingerprint(files)
	}
	rootSpan.End()
	reg.Set(obs.GaugePipelineWall, time.Since(runStart).Seconds())

	st := res.Graph.ComputeStats()
	errNote := ""
	switch res.ParseErrors {
	case 0:
	case 1:
		errNote = " (1 parse error)"
	default:
		errNote = fmt.Sprintf(" (%d parse errors)", res.ParseErrors)
	}
	fmt.Printf("%s%s: %d events, %d candidate events, %d constraints, solved in %s (%d epochs)\n",
		summary, errNote, st.Events, len(res.System.EventInfos),
		len(res.System.Problem.Constraints), res.InferenceTime.Round(time.Millisecond),
		res.SolverEpochs)
	fmt.Print(stageBreakdown(res))
	if res.Workers > 1 && res.FrontendWall > 0 {
		// On a fully warm cache run parse+dataflow never execute, so the
		// parallel-speedup ratio is meaningless — the cache line below
		// carries the relevant number instead.
		if cpu := res.StageTime(obs.StageParse) + res.StageTime(obs.StageDataflow); cpu > 0 {
			fmt.Printf("front-end: %d workers, wall %s, effective speedup %.2fx\n",
				res.Workers, res.FrontendWall.Round(time.Microsecond),
				float64(cpu)/float64(res.FrontendWall))
		}
	}
	fmt.Print(cacheSummary(res, cfg.Cache))
	if *verbose {
		fmt.Printf("interning: %d distinct symbols, %d bytes saved vs per-occurrence rep strings\n",
			res.InternSymbols, res.InternBytesSaved)
		if td, ok := tracer.TraceByID(rootSpan.TraceID()); ok {
			fmt.Printf("trace %s:\n%s", td.TraceID, td.Tree())
		}
	}

	if err := stopCPU(); err != nil {
		fatal(err)
	}
	if *memProfile != "" {
		if err := obs.WriteHeapProfile(*memProfile); err != nil {
			fatal(err)
		}
	}
	if *metricsJSON != "" {
		if err := reg.WriteJSON(*metricsJSON); err != nil {
			fatal(err)
		}
		logger.Log("metrics.written", "path", *metricsJSON)
	}

	if *out != "" {
		merged := res.LearnedSpec(seedSpec)
		if err := os.WriteFile(*out, []byte(merged.Format()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d specification entries to %s\n", merged.Len(), *out)
	}
	if *store != "" {
		merged := res.LearnedSpec(seedSpec)
		meta := specio.Meta{
			CorpusFingerprint: fingerprint,
			CorpusFiles:       nFiles,
			Events:            st.Events,
			SeedEntries:       seedSpec.Len(),
			LearnedEntries:    merged.Len() - seedSpec.Len(),
			Generator:         "seldon",
		}
		if err := specio.Save(*store, merged, meta); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote spec store (%d entries, schema v%d) to %s\n",
			merged.Len(), specio.SchemaVersion, *store)
	}

	entries := res.LearnedEntries(seedSpec)
	for _, role := range propgraph.Roles() {
		n := 0
		fmt.Printf("\ninferred %ss:\n", role)
		for _, e := range entries {
			if e.Role != role || n >= *limit {
				continue
			}
			n++
			fmt.Printf("  %6.3f  %s\n", e.Score, e.Rep)
		}
		if n == 0 {
			fmt.Println("  (none)")
		}
	}
}

// coordinateConfig bundles the coordinator's flag surface.
type coordinateConfig struct {
	Pattern  string // -shards-in glob (artifact files)
	ExecN    int    // -exec-shards worker count
	Bin      string // -shard-bin
	Dir      string
	Generate int
	Workers  int
	// CacheDir doubles as the workers' shared fpcache (-exec-shards) and
	// the coordinator-side ingest target for artifact sidecars.
	CacheDir  string
	ShipCache bool   // ask workers to attach fpcache sidecars
	FlowCache string // persisted flow-constraint block cache file
}

// coordinate gathers shard artifacts — from a glob of files or by
// spawning a local seldon-shard fleet — and learns once over the global
// graph. Ingestion is streaming and pipelined: each artifact is decoded
// incrementally (never materialized whole) and folded into the union
// the moment its slice-order turn comes, so decode overlaps worker
// execution and peak coordinator memory is one artifact. The resulting
// Result is what a single-process LearnFromSources over the
// concatenated corpus would have produced, with shard gather/merge
// timings prepended to the stage breakdown.
func coordinate(cc coordinateConfig, seedSpec *spec.Spec, cfg core.Config) (*core.Result, *shard.MergeResult, error) {
	var ingest *fpcache.Cache
	if cc.CacheDir != "" {
		c, err := fpcache.Open(cc.CacheDir)
		if err != nil {
			return nil, nil, err
		}
		ingest = c
	}
	mopts := shard.MergeOptions{Metrics: cfg.Metrics, Log: cfg.Log}
	ropts := shard.ReadOptions{Cache: ingest, Metrics: cfg.Metrics, Log: cfg.Log}

	var (
		mres       *shard.MergeResult
		gatherName = obs.StageShardStream
	)
	t0 := time.Now()
	if cc.Pattern != "" {
		paths, err := filepath.Glob(cc.Pattern)
		if err != nil {
			return nil, nil, err
		}
		if len(paths) == 0 {
			return nil, nil, fmt.Errorf("no shard artifacts match %q", cc.Pattern)
		}
		sort.Strings(paths)
		gatherSpan := cfg.Span.StartChild(gatherName)
		m := shard.NewMerger(mopts)
		for _, p := range paths {
			a, err := shard.ReadFile(p, ropts)
			if err != nil {
				return nil, nil, err
			}
			cfg.Log.Log("shard.read", "path", p, "slice", a.Slice, "of", a.Slices,
				"bytes", a.Size)
			if err := m.Commit(a); err != nil {
				return nil, nil, err
			}
		}
		mres, err = m.Finish()
		gatherSpan.End()
		if err != nil {
			return nil, nil, err
		}
	} else {
		gatherName = obs.StageShardExec
		gatherSpan := cfg.Span.StartChild(gatherName)
		var err error
		mres, err = shard.ExecMerge(shard.ExecConfig{
			Bin: cc.Bin, Slices: cc.ExecN,
			Dir: cc.Dir, Generate: cc.Generate,
			Workers: cc.Workers, CacheDir: cc.CacheDir,
			ShipCache: cc.ShipCache, Ingest: ingest,
			Metrics: cfg.Metrics,
		}, mopts)
		gatherSpan.End()
		if err != nil {
			return nil, nil, err
		}
		cfg.Metrics.ObserveDuration(obs.StageShardExec, time.Since(t0))
	}
	gatherWall := time.Since(t0)

	res, err := coordinatedLearn(cc.FlowCache, mres, seedSpec, cfg)
	if err != nil {
		return nil, nil, err
	}
	res.Stages = append([]core.StageTiming{
		{Name: gatherName, Duration: gatherWall},
		{Name: obs.TimerShardMerge, Duration: mres.MergeWall},
	}, res.Stages...)
	res.ParseErrors = mres.ParseErrors
	res.ParseErrorFiles = mres.ParseErrorFiles
	return res, mres, nil
}

// coordinatedLearn runs inference over the merged graph. With a
// -flowcache file it loads the persisted flow-constraint blocks, builds
// the system incrementally against the merge's file spans (byte-
// identical to the full build — reuse is fingerprint-gated), saves the
// refreshed cache back, and hands the prepared system to the solver;
// without one it is core.Learn.
func coordinatedLearn(flowPath string, mres *shard.MergeResult, seedSpec *spec.Spec, cfg core.Config) (*core.Result, error) {
	if flowPath == "" || mres.Spans == nil {
		return core.Learn(mres.Graph, seedSpec, cfg), nil
	}
	copts := cfg.ConstraintOptions()
	fc, warm := constraints.LoadFlowCache(flowPath, copts)

	sp := cfg.Span.StartChild(obs.StageConstraints)
	tb := time.Now()
	sys, st := constraints.BuildIncremental(mres.Graph, seedSpec, copts, mres.Spans, fc)
	buildWall := time.Since(tb)
	sp.End()
	cfg.Metrics.ObserveDuration(obs.StageConstraints, buildWall)
	cfg.Log.Log(obs.StageConstraints, "dur", buildWall.Round(time.Microsecond),
		"flowcache", flowPath, "warm", warm,
		"spans", st.Spans, "reused", st.SpansReused, "rebuilt", st.SpansRebuilt)

	res := core.LearnPrepared(mres.Graph, sys, cfg)
	res.Stages = append([]core.StageTiming{
		{Name: obs.StageConstraints, Duration: buildWall},
	}, res.Stages...)
	if err := fc.Save(flowPath, copts); err != nil {
		// The run's result is already in hand; a failed save only costs
		// the next run its warm start.
		fmt.Fprintln(os.Stderr, "seldon: flowcache save:", err)
	}
	return res, nil
}

// coordinatorSeed resolves the seed specification for a coordinator
// run, mirroring loadInput's choices so distributed and single-process
// runs of the same corpus learn from the same seed.
func coordinatorSeed(seedFile string, generate int) (*spec.Spec, error) {
	if seedFile != "" {
		data, err := os.ReadFile(seedFile)
		if err != nil {
			return nil, err
		}
		return spec.Parse(string(data))
	}
	if generate > 0 {
		return corpus.ExperimentSeed(), nil
	}
	return spec.Seed(), nil
}

// stageBreakdown formats the per-stage timing line: each recorded stage
// with its share of the total pipeline wall time.
func stageBreakdown(res *core.Result) string {
	var total time.Duration
	for _, st := range res.Stages {
		total += st.Duration
	}
	var b strings.Builder
	b.WriteString("stage timings:\n")
	for _, st := range res.Stages {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(st.Duration) / float64(total)
		}
		fmt.Fprintf(&b, "  %-18s %10s  %5.1f%%\n",
			strings.TrimPrefix(st.Name, "stage."),
			st.Duration.Round(time.Microsecond), pct)
	}
	fmt.Fprintf(&b, "  %-18s %10s\n", "total", total.Round(time.Microsecond))
	return b.String()
}

// cacheSummary formats the analysis-cache line: hit rate, entry bytes
// touched, front-end time the hits avoided, and the resulting estimated
// speedup over an uncached run of the same corpus.
func cacheSummary(res *core.Result, cache *fpcache.Cache) string {
	if cache == nil {
		return ""
	}
	total := res.CacheHits + res.CacheMisses
	rate := 0.0
	if total > 0 {
		rate = 100 * float64(res.CacheHits) / float64(total)
	}
	line := fmt.Sprintf("cache: %d/%d hits (%.1f%%), %d misses, %d bytes, saved %s",
		res.CacheHits, total, rate, res.CacheMisses, res.CacheBytes,
		res.CacheSaved.Round(time.Microsecond))
	if res.CacheSaved > 0 && res.FrontendWall > 0 {
		line += fmt.Sprintf(", est. warm speedup %.2fx",
			float64(res.FrontendWall+res.CacheSaved)/float64(res.FrontendWall))
	}
	return line + "\n"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seldon:", err)
	os.Exit(1)
}

// loadInput assembles the file map and seed specification.
func loadInput(dir string, generate int, seedFile string) (map[string]string, *spec.Spec, error) {
	var files map[string]string
	var seedSpec *spec.Spec
	switch {
	case generate > 0:
		c := corpus.Generate(corpus.Config{Files: generate})
		files = c.FileMap()
		seedSpec = corpus.ExperimentSeed()
	case dir != "":
		files = map[string]string{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".py") {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files[path] = string(data)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		seedSpec = spec.Seed()
	default:
		return nil, nil, fmt.Errorf("need -dir or -generate (see -help)")
	}
	if seedFile != "" {
		data, err := os.ReadFile(seedFile)
		if err != nil {
			return nil, nil, err
		}
		seedSpec, err = spec.Parse(string(data))
		if err != nil {
			return nil, nil, err
		}
	}
	return files, seedSpec, nil
}
