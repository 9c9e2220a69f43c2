// Command seldon is every program that reads a directory of Python: it
// learns taint specifications from a corpus — likely sources, sanitizers
// and sinks inferred from a seed specification, printed by confidence and
// optionally saved — and checks code against one. It is one program with
// five ways in, each a subcommand whose flags (-h lists them) are drawn
// from the same groups:
//
//	seldon learn -dir repo [-seedfile seed.spec] -out learned.spec
//	seldon learn -generate 240 -o specs.json          # synthetic corpus, store for seldond
//	seldon learn -dir repo -session-dir .session -o specs.json
//	seldon learn -dir repo -session-dir .session -feedback verdicts.json -o specs.json
//
// learn analyzes the whole corpus in this process. With -session-dir it
// keeps per-file graphs, the previous solution and feedback pins there,
// re-analyzes only files whose content changed and warm-starts the solve;
// -feedback replays {symbol, role, verdict} objects into the session as
// hard pins. The same directory powers seldond's POST /v1/feedback.
//
//	seldon shard -dir repo -slices 4 -slice 2 -o part2.shard
//	seldon coordinate -shards-in 'parts/*.shard' -seedfile seed.spec -o specs.json
//
// shard analyzes one contiguous slice of the corpus's sorted file names
// and writes one artifact; coordinate merges the artifact files a glob
// names in slice order and learns once, printing what learn prints.
// Whichever way in, the store is byte-identical to `seldon learn` over the
// whole corpus.
//
//	seldon check -spec learned.spec file1.py file2.py ...
//	seldon check -dir repo                  # the App. B seed by default
//	seldon graph -dir repo -o graph.json
//
// check reports the unsanitized source→sink flows a specification finds
// (exit 0 clean, 1 flows found, 2 could not run); graph writes the union
// of the propagation graphs as JSON. Both take .py paths as arguments
// beside -dir; learn, shard and coordinate refuse arguments as usage
// errors rather than ignore them. coordinate takes neither -dir nor
// -generate: its corpus is the artifacts, its seed -seedfile or App. B's.
//
// All but graph take -cache-dir (content-addressed per-file analysis
// cache, shared safely between workers) and the observability flags:
// -v, -metrics-json, -http (/metrics and /debug/pprof/ during the run),
// -cpuprofile, -memprofile.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/fpcache"
	"seldon/internal/obs"
	"seldon/internal/obs/trace"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

func main() {
	commands := map[string]func(args []string) error{
		"learn":      learn,
		"coordinate": coordinate,
		"shard":      shardWorker,
		"check":      check,
		"graph":      graph,
	}
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: seldon learn|coordinate|shard|check|graph [flags]   (seldon <subcommand> -h lists them)")
		os.Exit(2)
	}
	err := commands[os.Args[1]](os.Args[2:])
	if errors.Is(err, errFindings) {
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "seldon:", err)
		if os.Args[1] == "check" || errors.Is(err, errUsage) {
			os.Exit(2) // 1 is check's "flows found"; 2 is flag's usage error
		}
		os.Exit(1)
	}
}

// errFindings is check's verdict when it found flows: they are printed,
// nothing failed, and the exit status is 1.
var errFindings = errors.New("flows found")

// errUsage is input a subcommand would otherwise ignore without a word;
// like flag's own usage errors it exits 2.
var errUsage = errors.New("usage")

// noArgs refuses positional arguments: learn and shard read their corpus
// from -dir or -generate and coordinate from -shards-in, so a path given
// to them would not be read.
func noArgs(fs *flag.FlagSet) error {
	if fs.NArg() > 0 {
		return fmt.Errorf("%w: %s takes no file arguments, but got %s (see -h)",
			errUsage, fs.Name(), strings.Join(fs.Args(), " "))
	}
	return nil
}

// The flag groups. Each flag is registered by exactly one of these
// functions; a subcommand's flag set is the groups that apply to it plus
// its own flags, so a flag that does not apply is flag's usage error.

// inputFlags designate the corpus.
type inputFlags struct {
	dir      string
	generate int
	paths    []string // .py files named as arguments (check, graph)
}

func addInputFlags(fs *flag.FlagSet) *inputFlags {
	in := &inputFlags{}
	fs.StringVar(&in.dir, "dir", "", "directory of .py files")
	fs.IntVar(&in.generate, "generate", 0, "generate a synthetic corpus of N files instead of -dir")
	return in
}

// addWorkersFlag registers how wide the front end and the constraint
// build run: every subcommand's, coordinate's too, which reads no corpus.
func addWorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "goroutines for the front end and the constraint build (0 = GOMAXPROCS, 1 = sequential); results are identical at every count")
}

// files loads slice i of n of the designated corpus: contiguous blocks of
// its sorted file names (1 of 1 is the corpus), a name given twice being
// one file. A slice of files on disk reads only its own.
func (in *inputFlags) files(i, n int) (map[string]string, error) {
	if in.generate > 0 {
		return core.SliceFiles(corpus.Generate(corpus.Config{Files: in.generate}).FileMap(), i, n), nil
	}
	if in.dir == "" && len(in.paths) == 0 {
		return nil, errors.New("no input: need -dir or -generate (check and graph also take .py paths; see -h)")
	}
	names := slices.Clone(in.paths)
	if in.dir != "" {
		err := filepath.WalkDir(in.dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".py") {
				names = append(names, path)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	slices.Sort(names)
	files := map[string]string{}
	for _, name := range core.SliceNames(slices.Compact(names), i, n) {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		files[name] = string(data)
	}
	return files, nil
}

// learnFlags are what the learn is run against and with.
type learnFlags struct {
	seedFile             string
	threshold, lambda, c float64
}

func addLearnFlags(fs *flag.FlagSet) *learnFlags {
	l := &learnFlags{}
	fs.StringVar(&l.seedFile, "seedfile", "", "seed specification (o:/a:/i:/b: lines); default: the generator's for a -generate corpus, else the paper's App. B seed")
	fs.Float64Var(&l.threshold, "threshold", 0.1, "score threshold for selecting roles")
	fs.Float64Var(&l.lambda, "lambda", 0.1, "L1 regularization weight")
	fs.Float64Var(&l.c, "c", 0.75, "implication-strength constant C")
	return l
}

// seed resolves the seed specification: -seedfile, or else the
// generator's for a generated corpus and the paper's App. B seed for any
// other.
func (l *learnFlags) seed(generated bool) (*spec.Spec, error) {
	switch {
	case l.seedFile != "":
		return readSpec(l.seedFile)
	case generated:
		return corpus.ExperimentSeed(), nil
	}
	return spec.Seed(), nil
}

// readSpec parses a specification file (o:/a:/i:/b: lines).
func readSpec(path string) (*spec.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return spec.Parse(string(data))
}

// outputFlags say what to print and where to save what was learned.
type outputFlags struct {
	top        int
	out, store string
}

func addOutputFlags(fs *flag.FlagSet) *outputFlags {
	o := &outputFlags{}
	fs.IntVar(&o.top, "top", 50, "print at most this many inferred specs per role")
	fs.StringVar(&o.out, "out", "", "write the merged (seed + learned) specification to this file, for seldon check -spec")
	fs.StringVar(&o.store, "o", "", "write the merged specification as a versioned JSON spec store (with provenance metadata), for seldond -specs")
	return o
}

// cacheFlags designate the persistent per-file analysis cache.
type cacheFlags struct {
	dir   string
	clear bool
}

func addCacheFlags(fs *flag.FlagSet) *cacheFlags {
	c := &cacheFlags{}
	fs.StringVar(&c.dir, "cache-dir", "", "persistent per-file analysis cache directory (content-addressed, sharable between workers; results are bitwise identical with or without it)")
	fs.BoolVar(&c.clear, "cache-clear", false, "empty -cache-dir before the run")
	return c
}

// open returns the cache, or nil without -cache-dir.
func (c *cacheFlags) open() (*fpcache.Cache, error) {
	if c.dir == "" {
		return nil, nil
	}
	cache, err := fpcache.Open(c.dir)
	if err == nil && c.clear {
		err = cache.Clear()
	}
	return cache, err
}

// obsFlags are the observability surface of a run.
type obsFlags struct {
	verbose                                       bool
	metricsJSON, httpAddr, cpuProfile, memProfile string
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.BoolVar(&o.verbose, "v", false, "log pipeline stages and parse errors to stderr (check: also print witness flow traces)")
	fs.StringVar(&o.metricsJSON, "metrics-json", "", "write a JSON metrics snapshot to this file at exit")
	fs.StringVar(&o.httpAddr, "http", "", "serve /metrics and /debug/pprof/ on this address during the run (e.g. :8080)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	return o
}

// observed is a run's observability once started: the registry the
// pipeline reports to — every run has one, because the report a
// subcommand prints is read from it — the logger (nil without -v), and
// stop, which ends the CPU profile and writes the heap profile and the
// metrics snapshot.
type observed struct {
	log  *obs.Logger
	reg  *obs.Registry
	stop func() error
}

// start brings up what the flags ask for, failing before the run on a
// busy port or an unwritable path rather than after it.
func (o *obsFlags) start() (*observed, error) {
	ob := &observed{reg: obs.New()}
	if o.verbose {
		ob.log = obs.NewLogger(os.Stderr)
	}
	if o.httpAddr != "" {
		srv, errc, err := obs.Serve(o.httpAddr, ob.reg)
		if err != nil {
			return nil, err
		}
		go func() {
			if err := <-errc; err != nil {
				fmt.Fprintln(os.Stderr, "seldon:", err)
				os.Exit(1)
			}
		}()
		ob.log.Log("http.listen", "addr", srv.Addr)
	}
	if o.metricsJSON != "" {
		if err := ob.reg.WriteJSON(o.metricsJSON); err != nil {
			return nil, err
		}
	}
	stopCPU := func() error { return nil }
	if o.cpuProfile != "" {
		var err error
		if stopCPU, err = obs.StartCPUProfile(o.cpuProfile); err != nil {
			return nil, err
		}
	}
	ob.stop = func() error {
		if err := stopCPU(); err != nil {
			return err
		}
		if o.memProfile != "" {
			if err := obs.WriteHeapProfile(o.memProfile); err != nil {
				return err
			}
		}
		if o.metricsJSON != "" {
			if err := ob.reg.WriteJSON(o.metricsJSON); err != nil {
				return err
			}
			ob.log.Log("metrics.written", "path", o.metricsJSON)
		}
		return nil
	}
	return ob, nil
}

// learnRun is what learn and coordinate share around the pipeline: the
// run's trace (stages become child spans, printed as a tree under -v, the
// way seldond serves them per request from /debug/traces), the pipeline
// configuration, and the tail every learn ends with.
type learnRun struct {
	ob     *observed
	tracer *trace.Tracer
	root   *trace.Span
	begun  time.Time
	cfg    core.Config
}

func startLearnRun(rootName string, workers int, l *learnFlags, o *obsFlags) (*learnRun, error) {
	ob, err := o.start()
	if err != nil {
		return nil, err
	}
	r := &learnRun{ob: ob, tracer: trace.New(4), begun: time.Now()}
	r.root = r.tracer.StartRoot(rootName)
	r.cfg = core.Config{Threshold: l.threshold, Workers: workers, Metrics: ob.reg, Log: ob.log, Span: r.root}
	r.cfg.Constraints.Lambda = l.lambda
	r.cfg.Constraints.C = l.c
	return r, nil
}

// finish closes the run and writes everything a learn writes: summary
// line, stage breakdown, front-end and cache lines — all read from the
// run's registry — -out and -o, and the inferred specifications by role.
// nFiles and fingerprint are the corpus identity the store's provenance
// records.
func (r *learnRun) finish(res *core.Result, seedSpec *spec.Spec, summary string, nFiles int, fingerprint string, out *outputFlags) error {
	r.root.End()
	r.cfg.Metrics.Set(obs.GaugePipelineWall, time.Since(r.begun).Seconds())
	snap := r.cfg.Metrics.Snapshot()

	st := res.Graph.ComputeStats()
	errNote := ""
	switch n := len(res.ParseErrorFiles); n {
	case 0:
	case 1:
		errNote = " (1 parse error)"
	default:
		errNote = fmt.Sprintf(" (%d parse errors)", n)
	}
	fmt.Printf("%s%s: %d events, %d candidate events, %d constraints, solved in %s (%d epochs)\n",
		summary, errNote, st.Events, len(res.System.EventInfos),
		len(res.System.Problem.Constraints), seconds(snap.Timers[obs.StageSolve].Sum).Round(time.Millisecond),
		res.SolverEpochs)
	fmt.Print(stageBreakdown(snap))
	// The gauge is absent when no file was analyzed: on a fully warm
	// cache run the cache line carries the number instead.
	if speedup, ok := snap.Gauges[obs.GaugeFrontendSpeedup]; ok && snap.Gauges[obs.GaugeWorkers] > 1 {
		fmt.Printf("front-end: %d workers, wall %s, effective speedup %.2fx\n",
			int(snap.Gauges[obs.GaugeWorkers]),
			seconds(snap.Timers[obs.StageFrontend].Sum).Round(time.Microsecond), speedup)
	}
	if r.cfg.Cache != nil {
		fmt.Print(cacheSummary(snap))
	}
	if r.ob.log != nil {
		fmt.Printf("interning: %d distinct symbols, %d bytes saved vs per-occurrence rep strings\n",
			int64(snap.Gauges[obs.GaugeInternSymbols]), int64(snap.Gauges[obs.GaugeInternBytesSaved]))
		if td, ok := r.tracer.TraceByID(r.root.TraceID()); ok {
			fmt.Printf("trace %s:\n%s", td.TraceID, td.Tree())
		}
	}
	if err := r.ob.stop(); err != nil {
		return err
	}

	merged := res.LearnedSpec(seedSpec)
	if out.out != "" {
		if err := os.WriteFile(out.out, []byte(merged.Format()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d specification entries to %s\n", merged.Len(), out.out)
	}
	if out.store != "" {
		meta := specio.Meta{
			CorpusFingerprint: fingerprint,
			CorpusFiles:       nFiles,
			Events:            st.Events,
			SeedEntries:       seedSpec.Len(),
			LearnedEntries:    merged.Len() - seedSpec.Len(),
			Generator:         "seldon",
		}
		if err := specio.Save(out.store, merged, meta); err != nil {
			return err
		}
		fmt.Printf("wrote spec store (%d entries, schema v%d) to %s\n",
			merged.Len(), specio.SchemaVersion, out.store)
	}

	entries := res.LearnedEntries(seedSpec)
	for _, role := range propgraph.Roles() {
		n := 0
		fmt.Printf("\ninferred %ss:\n", role)
		for _, e := range entries {
			if e.Role != role || n >= out.top {
				continue
			}
			n++
			fmt.Printf("  %6.3f  %s\n", e.Score, e.Rep)
		}
		if n == 0 {
			fmt.Println("  (none)")
		}
	}
	return nil
}

// tableStages are the stage timers a run's table lists when it recorded
// them, in pipeline order: top-level stages only, so that the total
// counts no time twice (shard.merge is inside stage.shard.decode,
// stage.incr.splice wraps parse, dataflow and cache).
var tableStages = []string{
	obs.StageShardDecode,
	obs.StageParse, obs.StageDataflow, obs.StageCache,
	obs.StageUnion, obs.StageConstraints, obs.StageIncrRebuild,
	obs.StageSolve, obs.StageSelect,
}

// stageBreakdown formats the per-stage timing lines: each stage the run
// recorded, with its share of their total.
func stageBreakdown(snap *obs.Snapshot) string {
	var total time.Duration
	for _, name := range tableStages {
		total += seconds(snap.Timers[name].Sum)
	}
	var b strings.Builder
	b.WriteString("stage timings:\n")
	for _, name := range tableStages {
		t, ok := snap.Timers[name]
		if !ok {
			continue
		}
		d := seconds(t.Sum)
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d) / float64(total)
		}
		fmt.Fprintf(&b, "  %-18s %10s  %5.1f%%\n",
			strings.TrimPrefix(name, "stage."), d.Round(time.Microsecond), pct)
	}
	fmt.Fprintf(&b, "  %-18s %10s\n", "total", total.Round(time.Microsecond))
	return b.String()
}

// cacheSummary formats the analysis-cache line: hit rate, entry bytes
// touched, front-end time the hits avoided, and the estimated speedup
// over an uncached run of the same corpus.
func cacheSummary(snap *obs.Snapshot) string {
	hits, misses := snap.Counters[obs.CounterCacheHits], snap.Counters[obs.CounterCacheMisses]
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * float64(hits) / float64(hits+misses)
	}
	saved := snap.Gauges[obs.GaugeCacheSaved]
	line := fmt.Sprintf("cache: %d/%d hits (%.1f%%), %d misses, %d bytes, saved %s",
		hits, hits+misses, rate, misses, snap.Counters[obs.CounterCacheBytes],
		seconds(saved).Round(time.Microsecond))
	if speedup := snap.Gauges[obs.GaugeCacheWarmSpeedup]; saved > 0 && speedup > 0 {
		line += fmt.Sprintf(", est. warm speedup %.2fx", speedup)
	}
	return line + "\n"
}

// seconds is a registry figure in seconds as a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
