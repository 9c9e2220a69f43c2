package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/corpus"
	"seldon/internal/envelope"
	"seldon/internal/fpcache"
	"seldon/internal/obs"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

func openCache(t *testing.T) *fpcache.Cache {
	t.Helper()
	c, err := fpcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cacheCounts is what a run's registry says the analysis cache did.
func cacheCounts(reg *obs.Registry) (hits, misses int) {
	return int(reg.Counter(obs.CounterCacheHits)), int(reg.Counter(obs.CounterCacheMisses))
}

// resultFingerprint collapses every semantically observable output of a
// learning run into comparable bytes: the merged graph (event IDs, reps,
// positions, edges), the bitwise solver solution, predictions, parse
// errors, and the merged spec store a run would persist.
func resultFingerprint(t *testing.T, res *Result, seed *spec.Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Graph.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	for _, x := range res.Solution {
		fmt.Fprintf(&buf, "%016x\n", math.Float64bits(x))
	}
	fmt.Fprintf(&buf, "%+v\n%v\n", res.Predictions, res.ParseErrorFiles)
	if err := specio.Encode(&buf, res.LearnedSpec(seed), specio.Meta{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLearnFromSourcesCacheDeterminism is the tentpole's bitwise
// guarantee: learn-without-cache, learn-with-cold-cache, and
// learn-with-warm-cache produce identical results at workers 1 and 4.
func TestLearnFromSourcesCacheDeterminism(t *testing.T) {
	files := parallelCorpus()
	seed := tinySeed()
	base := LearnFromSources(files, seed, Config{
		Constraints: constraints.Options{BackoffCutoff: 2}, Workers: 1,
	})
	want := resultFingerprint(t, base, seed)

	for _, workers := range []int{1, 4} {
		cache := openCache(t)
		for _, phase := range []string{"cold", "warm"} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, phase), func(t *testing.T) {
				reg := obs.New()
				res := LearnFromSources(files, seed, Config{
					Constraints: constraints.Options{BackoffCutoff: 2},
					Workers:     workers, Cache: cache, Metrics: reg,
				})
				if got := resultFingerprint(t, res, seed); !bytes.Equal(got, want) {
					t.Error("cached result differs from uncached baseline")
				}
				wantHits := 0
				if phase == "warm" {
					wantHits = len(files)
				}
				if hits, misses := cacheCounts(reg); hits != wantHits || hits+misses != len(files) {
					t.Errorf("hits/misses = %d/%d, want %d/%d",
						hits, misses, wantHits, len(files)-wantHits)
				}
				if b := reg.Counter(obs.CounterCacheBytes); b <= 0 {
					t.Errorf("cache bytes = %d, want > 0", b)
				}
				if saved := reg.Snapshot().Gauges[obs.GaugeCacheSaved]; phase == "warm" && saved <= 0 {
					t.Errorf("warm run saved %vs, want > 0", saved)
				}
			})
		}
	}
}

// TestCorpusEvolution models the deployment loop the cache exists for:
// a corpus is learned once, one file changes, and the re-learn pays for
// exactly that file while matching a cold full re-run bit for bit.
func TestCorpusEvolution(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 24}).FileMap()
	seed := corpus.ExperimentSeed()
	cfg := Config{Workers: 4}
	cfg.Solver.Iterations = 40
	cache := openCache(t)

	// cached learns through the cache with a registry of its own and
	// returns what the cache did.
	cached := func() (res *Result, hits, misses int) {
		ccfg := cfg
		ccfg.Cache, ccfg.Metrics = cache, obs.New()
		res = LearnFromSources(files, seed, ccfg)
		hits, misses = cacheCounts(ccfg.Metrics)
		return res, hits, misses
	}
	if _, hits, misses := cached(); misses != len(files) || hits != 0 {
		t.Fatalf("cold run: hits/misses = %d/%d, want 0/%d", hits, misses, len(files))
	}
	if _, hits, misses := cached(); hits != len(files) || misses != 0 {
		t.Fatalf("replay: hits/misses = %d/%d, want %d/0", hits, misses, len(files))
	}

	// Mutate one file: append a statement that adds events.
	var mutated string
	for name := range files {
		mutated = name
		break
	}
	files[mutated] += "\n\ndef evolved(x):\n    return x\n"

	evolved, hits, misses := cached()
	if misses != 1 || hits != len(files)-1 {
		t.Fatalf("after mutation: hits/misses = %d/%d, want %d/1", hits, misses, len(files)-1)
	}

	cold := LearnFromSources(files, seed, cfg) // no cache at all
	if !bytes.Equal(resultFingerprint(t, evolved, seed), resultFingerprint(t, cold, seed)) {
		t.Error("incremental re-learn differs from a cold full re-run")
	}

	// The mutated file's entry was written back: everything hits now.
	if _, hits, _ := cached(); hits != len(files) {
		t.Errorf("post-evolution replay hits = %d, want %d", hits, len(files))
	}
}

// TestCorruptedEntryFallsBackToAnalysis damages one on-disk entry and
// expects a silent re-analysis (one miss), an identical result, and a
// repaired entry.
func TestCorruptedEntryFallsBackToAnalysis(t *testing.T) {
	files := parallelCorpus()
	dir := t.TempDir()
	cache, err := fpcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 2, Cache: cache}
	base := AnalyzeFiles(files, Config{Workers: 1})
	AnalyzeFiles(files, cfg) // populate

	paths, err := filepath.Glob(filepath.Join(dir, "*.fpc"))
	if err != nil || len(paths) != len(files) {
		t.Fatalf("cache entries = %d (err %v), want %d", len(paths), err, len(files))
	}
	if err := os.WriteFile(paths[0], []byte("scrambled"), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Metrics = obs.New()
	fe := AnalyzeFiles(files, cfg)
	if hits, misses := cacheCounts(cfg.Metrics); misses != 1 || hits != len(files)-1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", hits, misses, len(files)-1)
	}
	if !reflect.DeepEqual(fe.Names, base.Names) {
		t.Fatalf("names = %v, want %v", fe.Names, base.Names)
	}
	for i := range fe.Graphs {
		if !bytes.Equal(fe.Graphs[i].AppendBinary(nil), base.Graphs[i].AppendBinary(nil)) {
			t.Errorf("graph %d differs after corruption fallback", i)
		}
	}
	if !reflect.DeepEqual(fe.ParseErrorFiles, base.ParseErrorFiles) {
		t.Errorf("parse-error files = %v, want %v", fe.ParseErrorFiles, base.ParseErrorFiles)
	}

	cfg.Metrics = obs.New()
	AnalyzeFiles(files, cfg)
	if _, misses := cacheCounts(cfg.Metrics); misses != 0 {
		t.Errorf("after repair: %d misses, want 0", misses)
	}
}

// TestAnalyzeFilesCacheTelemetry checks the cache.* metric names land in
// the registry with consistent values.
func TestAnalyzeFilesCacheTelemetry(t *testing.T) {
	files := parallelCorpus()
	cache := openCache(t)
	reg := obs.New()
	AnalyzeFiles(files, Config{Workers: 2, Cache: cache, Metrics: reg})
	warmReg := obs.New()
	AnalyzeFiles(files, Config{Workers: 2, Cache: cache, Metrics: warmReg})

	cold := reg.Snapshot()
	if cold.Counters[obs.CounterCacheMisses] != int64(len(files)) ||
		cold.Counters[obs.CounterCacheHits] != 0 {
		t.Errorf("cold counters = %v", cold.Counters)
	}
	warm := warmReg.Snapshot()
	if warm.Counters[obs.CounterCacheHits] != int64(len(files)) ||
		warm.Counters[obs.CounterCacheMisses] != 0 {
		t.Errorf("warm counters = %v", warm.Counters)
	}
	if warm.Counters[obs.CounterCacheBytes] <= 0 {
		t.Errorf("%s = %d, want > 0", obs.CounterCacheBytes, warm.Counters[obs.CounterCacheBytes])
	}
	if warm.Timers[obs.StageCache].Count != 1 {
		t.Errorf("%s count = %d, want 1", obs.StageCache, warm.Timers[obs.StageCache].Count)
	}
	if v, ok := warm.Gauges[obs.GaugeCacheWarmSpeedup]; !ok || v < 1 {
		t.Errorf("warm %s = %v (present %v), want >= 1", obs.GaugeCacheWarmSpeedup, v, ok)
	}
	// Warm hits skip parse+dataflow entirely: the per-file timers must
	// record zero observations.
	if warm.Timers[obs.FileParse].Count != 0 {
		t.Errorf("warm %s count = %d, want 0", obs.FileParse, warm.Timers[obs.FileParse].Count)
	}
}

// TestStaleEntriesLeaveOnOpen runs a 60-file front end over a cache
// directory that already holds an entry another codec version wrote:
// the directory ends with exactly the run's 60 entries.
func TestStaleEntriesLeaveOnOpen(t *testing.T) {
	dir := t.TempDir()
	stale := envelope.Seal([]byte("SFPC\x02 written by another codec version"))
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%064x.fpc", 2)), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	cache, err := fpcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := corpus.Generate(corpus.Config{Files: 60, Seed: 1}).FileMap()
	AnalyzeFiles(files, Config{Workers: 2, Cache: cache})
	paths, err := filepath.Glob(filepath.Join(dir, "*.fpc"))
	if err != nil || len(files) != 60 || len(paths) != 60 {
		t.Fatalf("%d .fpc files after a %d-file run (err %v), want 60", len(paths), len(files), err)
	}
}
