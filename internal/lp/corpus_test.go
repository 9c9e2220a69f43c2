package lp_test

import (
	"fmt"
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/lp"
	"seldon/internal/propgraph"
)

// corpusSystem is the system constraints.Build derives from a generated
// corpus, where the same API triples recur across files: the duplication
// the pipeline actually emits instead of a hand-made shape.
func corpusSystem() *lp.Problem {
	files := corpus.Generate(corpus.Config{Files: 240}).FileMap()
	fe := core.AnalyzeFiles(files, core.Config{})
	return constraints.Build(propgraph.Union(fe.Graphs...), corpus.ExperimentSeed(), constraints.Options{}).Problem
}

// TestKernelMatchesReferenceOnCorpusSystem runs the oracle over the corpus
// system: the kernel and the interpreted solver of the folded problem must
// agree on the epoch count and on every bit of the solution, the objective
// and the violation, cold and warm, at one shard, two and five.
func TestKernelMatchesReferenceOnCorpusSystem(t *testing.T) {
	p := corpusSystem()
	check := func(name string, opts lp.Options) *lp.Result {
		ref := lp.MinimizeReference(p, opts)
		var ker *lp.Result
		for _, shards := range []int{1, 2, 5} {
			opts.Shards = shards
			ker = lp.Minimize(p, opts)
			lp.SameBits(t, fmt.Sprintf("%s, shards=%d", name, shards), ker, ref)
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

// TestFoldedReferenceMatchesUnfoldedOnCorpusSystem: on the pipeline's own
// system too, summing every copy of a constraint on its own and summing the
// distinct ones times their counts walk the same descent to within
// rounding.
func TestFoldedReferenceMatchesUnfoldedOnCorpusSystem(t *testing.T) {
	p := corpusSystem()
	opts := lp.Options{Iterations: 150}
	lp.AssertWithinRounding(t, lp.MinimizeReference(p, opts), lp.MinimizeUnfolded(p, opts))
}
