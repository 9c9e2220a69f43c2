package core

import (
	"runtime"
	"testing"

	"seldon/internal/corpus"
)

// Allocation ceilings for the batch front-end with a warm scratch, about
// 15 % over the measured 53.5 allocations and 3481 bytes per file (before
// the front-end recycled its memory: 723 and 63 KB; before graphs were
// flat arrays copied out of the scratch's builder: 64.2 and 8962). Nearly
// all of what is left is the returned graph — nine allocations — and the
// representation strings the analyzer builds. A slab
// that stops recycling, or a new per-node allocation in the lexer, parser
// or analyzer, lands well above these.
const (
	allocBudgetPerFile = 62
	byteBudgetPerFile  = 4000
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
