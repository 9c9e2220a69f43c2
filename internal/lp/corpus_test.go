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
func corpusSystem() *lp.Problem { return systemOf(corpus.Config{Files: 240}) }

func systemOf(cfg corpus.Config) *lp.Problem {
	fe := core.AnalyzeFiles(corpus.Generate(cfg).FileMap(), core.Config{})
	return constraints.Build(propgraph.Union(fe.Graphs...), corpus.ExperimentSeed(), constraints.Options{}).Problem
}

// constantStepObjective600 is what the solver this one replaced — a constant
// step of 0.05 for exactly 400 epochs, best iterate returned — reached on
// the system of the 600-file corpus at seed 1.
const constantStepObjective600 = 1029.540690

// TestDefaultSolveBeatsTheFixedBudget: on a system the pipeline emits, the
// decaying step and the plateau window reach an objective no higher than
// 400 epochs of a constant step did, and stop on the window before the
// cap.
func TestDefaultSolveBeatsTheFixedBudget(t *testing.T) {
	res := lp.Minimize(systemOf(corpus.Config{Files: 600, Seed: 1}), lp.Options{})
	if res.Objective > constantStepObjective600 {
		t.Errorf("objective %.6f, the constant-step solve reached %.6f", res.Objective, constantStepObjective600)
	}
	if res.Stop != lp.StopPlateau || res.Iterations >= 400 {
		t.Errorf("solve ran %d epochs and stopped on %v, want a plateau before the 400-epoch cap", res.Iterations, res.Stop)
	}
}

// TestWarmStartFromOptimumConvergesFaster pins the core warm-start
// contract on a system the pipeline emits (the 600-file corpus): a solve
// seeded with a previous solution takes no more epochs than the cold one
// and never lands on a worse objective.
func TestWarmStartFromOptimumConvergesFaster(t *testing.T) {
	p := systemOf(corpus.Config{Files: 600, Seed: 1})
	cold := lp.Minimize(p, lp.Options{})
	warm := lp.Minimize(p, lp.Options{WarmStart: cold.X})
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm start took %d epochs, cold took %d", warm.Iterations, cold.Iterations)
	}
	// Minimize returns the best iterate seen; starting at the cold
	// optimum means the warm best can only match or improve it.
	if warm.Objective > cold.Objective+1e-9 {
		t.Errorf("warm objective %g worse than cold %g", warm.Objective, cold.Objective)
	}
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
