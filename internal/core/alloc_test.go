package core

import (
	"runtime"
	"testing"

	"seldon/internal/corpus"
)

// Allocation ceilings for the batch front-end with a warm scratch, about
// 15 % over the measured 64.2 allocations and 8962 bytes per file (before
// the front-end recycled its memory: 723 and 63 KB). Nearly all of what is left
// is the returned graph: its events, symbol table, adjacency and the
// representation strings. A slab that stops recycling, or a new per-node
// allocation in the lexer, parser or analyzer, lands well above these.
const (
	allocBudgetPerFile = 74
	byteBudgetPerFile  = 10300
)

func TestAnalyzeFilesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	files := corpus.Generate(corpus.Config{Files: 240, Seed: 1}).FileMap()
	cfg := Config{Workers: 1, Scratch: new(Scratch)}
	AnalyzeFiles(files, cfg) // grow the scratch

	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, func() { AnalyzeFiles(files, cfg) })
	runtime.ReadMemStats(&m1)
	// AllocsPerRun calls the function once more than it counts.
	perFileBytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64((runs+1)*len(files))
	perFileAllocs := allocs / float64(len(files))
	t.Logf("warm-scratch AnalyzeFiles: %.1f allocs/file, %.0f B/file", perFileAllocs, perFileBytes)
	if perFileAllocs > allocBudgetPerFile {
		t.Errorf("%.1f allocs/file, budget %d", perFileAllocs, allocBudgetPerFile)
	}
	if perFileBytes > byteBudgetPerFile {
		t.Errorf("%.0f B/file, budget %d", perFileBytes, byteBudgetPerFile)
	}
}
