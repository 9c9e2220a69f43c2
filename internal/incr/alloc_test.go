package incr_test

import (
	"runtime"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/incr"
	"seldon/internal/propgraph"
)

// TestRelearnAllocBudget pins what the standing state is for: once a
// session has re-learned a few times, a re-learn after a one-file edit
// allocates no block of the union and no staging array of the solver's
// compile — what it still allocates is the constraint build's per-build
// tables, the assembled constraint slice and the selection's output. The
// session holds a vocabulary file (see TestRandomEditsOracle) so that no
// edit renumbers symbols.
func TestRelearnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ca := corpus.Generate(corpus.Config{Files: 300, Seed: 11})
	cb := corpus.Generate(corpus.Config{Files: 300, Seed: 12})
	a, b := ca.Files, cb.Files
	a = a[:min(len(a), len(b))]
	fe := core.AnalyzeFiles(ca.FileMap(), core.Config{Workers: 1})
	every := append([]*propgraph.Graph(nil), fe.Graphs...)
	every = append(every, core.AnalyzeFiles(cb.FileMap(), core.Config{Workers: 1}).Graphs...)

	s := incr.NewSession(corpus.ExperimentSeed(), core.Config{Workers: 1})
	for i, n := range fe.Names {
		s.Splice(n, fe.Graphs[i])
	}
	s.Splice("!vocabulary", propgraph.Union(every...))

	var before, after runtime.MemStats
	measure := func(f func()) uint64 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cold := measure(func() { s.Relearn() })

	onB := make([]bool, len(a))
	edit := func(i int) {
		onB[i] = !onB[i]
		src := a[i].Source
		if onB[i] {
			src = b[i].Source
		}
		s.SpliceSource(a[i].Name, src)
	}
	for i := 0; i < 6; i++ { // grow the standing buffers to their steady size
		edit(i)
		s.Relearn()
	}
	const runs = 8
	var unionEvents, constraints int
	steady := measure(func() {
		for i := 0; i < runs; i++ {
			edit(10 + i)
			res, st := s.Relearn()
			if st.UnionRebuilt != "" || st.RowsReused != st.Delta.ConstraintsReused || st.Delta.SpansRebuilt > 8 {
				t.Fatalf("re-learn %d was not a steady one: %+v", i, st)
			}
			unionEvents, constraints = len(res.Graph.Events), len(res.System.Problem.Constraints)
		}
	}) / runs

	// Measured at this size (16.8k events, 27.9k constraints): 23.9 MB for
	// the first re-learn, 5.6 MB for a steady one. The union's event block
	// alone is 88 bytes an event (1.5 MB) and compile's staging 12 bytes a
	// term at three or more terms a constraint (1.0 MB): the budget leaves
	// less room than either, so neither can come back unnoticed.
	const budget = 6_200_000
	unionBlock, staging := uint64(unionEvents)*88, uint64(constraints)*3*12
	t.Logf("first re-learn %d bytes, steady re-learn %d; union event block %d, compile staging at least %d",
		cold, steady, unionBlock, staging)
	if steady > budget {
		t.Errorf("steady re-learn allocates %d bytes, budget %d", steady, budget)
	} else if slack := budget - steady; slack >= min(unionBlock, staging) {
		t.Errorf("budget leaves %d bytes of slack, room for an array of %d to come back", slack, min(unionBlock, staging))
	}
	if cold < 2*steady {
		t.Errorf("first re-learn allocated %d bytes, a steady one %d: the standing state saves nothing", cold, steady)
	}
}
