package lp_test

import (
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/lp"
	"seldon/internal/propgraph"
)

// TestKernelMatchesReferenceOnCorpusSystem runs the oracle over the
// duplication the pipeline actually emits — the system constraints.Build
// derives from a generated corpus, where the same API triples recur
// across files — instead of a hand-made shape: the folded kernel and the
// interpreted reference must agree on the epoch count and on every bit of
// the solution, cold and warm.
func TestKernelMatchesReferenceOnCorpusSystem(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 240}).FileMap()
	fe := core.AnalyzeFiles(files, core.Config{})
	p := constraints.Build(propgraph.Union(fe.Graphs...), corpus.ExperimentSeed(), constraints.Options{}).Problem

	check := func(name string, opts lp.Options) *lp.Result {
		ref := lp.MinimizeReference(p, opts)
		ker := lp.Minimize(p, opts)
		if ker.Iterations != ref.Iterations {
			t.Fatalf("%s: kernel ran %d epochs, reference %d", name, ker.Iterations, ref.Iterations)
		}
		for i := range ref.X {
			if ker.X[i] != ref.X[i] {
				t.Fatalf("%s: x[%d] = %v, reference %v", name, i, ker.X[i], ref.X[i])
			}
		}
		return ker
	}
	cold := check("cold", lp.Options{})
	if cold.Rows == 0 || 3*cold.Rows > 2*len(p.Constraints) {
		t.Errorf("%d constraints folded into %d rows; even a 240-file corpus repeats its rows 1.9×",
			len(p.Constraints), cold.Rows)
	}
	check("warm", lp.Options{WarmStart: cold.X, Patience: 25})
}
