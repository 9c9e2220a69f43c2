package core

import (
	"fmt"
	"runtime"
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/corpus"
	"seldon/internal/fpcache"
	"seldon/internal/lp"
	"seldon/internal/propgraph"
)

// reportPerFile adds allocs/file, B/file and source MB/s to a benchmark
// whose iterations each process files once; call it after the loop with
// the memory statistics read just before it.
func reportPerFile(b *testing.B, files map[string]string, before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	srcBytes := 0
	for _, src := range files {
		srcBytes += len(src)
	}
	n := float64(b.N * len(files))
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/file")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/file")
	b.ReportMetric(float64(b.N*srcBytes)/1e6/b.Elapsed().Seconds(), "MB/s")
}

// BenchmarkLearnFromSources measures the full pipeline over a generated
// corpus at several front-end worker counts. The solver budget is kept
// small so the per-file parse+dataflow section — the part Workers
// parallelizes — dominates the run.
func BenchmarkLearnFromSources(b *testing.B) {
	files := corpus.Generate(corpus.Config{Files: 120}).FileMap()
	seed := corpus.ExperimentSeed()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{Workers: workers}
			cfg.Solver.Iterations = 20
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				LearnFromSources(files, seed, cfg)
			}
			reportPerFile(b, files, &before)
		})
	}
}

// BenchmarkAnalyzeFiles isolates the parallel front-end (parse + dataflow,
// no union/solve) for the raw scaling number.
func BenchmarkAnalyzeFiles(b *testing.B) {
	files := corpus.Generate(corpus.Config{Files: 120}).FileMap()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				AnalyzeFiles(files, Config{Workers: workers})
			}
			reportPerFile(b, files, &before)
		})
	}
}

// BenchmarkAnalyzeFilesCache compares the front-end against the
// persistent analysis cache: cold (every file is a miss and is written
// back) versus warm (every file is a hit, parse+dataflow skipped). The
// warm/cold ratio is the incremental win a clean replay gets.
func BenchmarkAnalyzeFilesCache(b *testing.B) {
	files := corpus.Generate(corpus.Config{Files: 120}).FileMap()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache, err := fpcache.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			AnalyzeFiles(files, Config{Workers: 4, Cache: cache})
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache, err := fpcache.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		AnalyzeFiles(files, Config{Workers: 4, Cache: cache}) // populate
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fe := AnalyzeFiles(files, Config{Workers: 4, Cache: cache})
			if fe.CacheHits != len(files) {
				b.Fatalf("warm hits = %d, want %d", fe.CacheHits, len(files))
			}
		}
	})
}

// BenchmarkMinimizeCorpus times the solver alone on a system the pipeline
// actually emits — built once from a 1500-file generated corpus, so it
// carries big code's row duplication, which the synthetic
// lp.BenchmarkMinimize* problems lack entirely. cons/row is that
// duplication; ns/cons-epoch is comparable with the harness's
// lp.ns_per_constraint_epoch.
func BenchmarkMinimizeCorpus(b *testing.B) {
	files := corpus.Generate(corpus.Config{Files: 1500}).FileMap()
	fe := AnalyzeFiles(files, Config{})
	sys := constraints.Build(propgraph.Union(fe.Graphs...), corpus.ExperimentSeed(), constraints.Options{})
	var sol *lp.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol = lp.Minimize(sys.Problem, lp.Options{})
	}
	nCons := len(sys.Problem.Constraints)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nCons*sol.Iterations), "ns/cons-epoch")
	b.ReportMetric(float64(nCons)/float64(sol.Rows), "cons/row")
}
