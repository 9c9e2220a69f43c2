package core

import (
	"fmt"
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/propgraph"
	"seldon/internal/pytoken"
	"seldon/internal/spec"
)

// tinyCorpus builds a corpus of n copies of a handler where a seeded
// source flows through an unlabeled cleaner into a seeded sink, so the
// cleaner's sanitizer role must be inferred, plus noise files.
func tinyCorpus(n int) map[string]string {
	files := make(map[string]string)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("app%d.py", i)] = `from flask import request
import html_tools

def handler():
    q = request.args.get('q')
    safe = html_tools.scrub(q)
    return flask_render(safe)
`
		files[fmt.Sprintf("noise%d.py", i)] = `import math

def area(r):
    return math.pi * r * r
`
	}
	return files
}

func tinySeed() *spec.Spec {
	s := spec.New()
	s.Add(propgraph.Source, "flask.request.args.get()")
	s.Add(propgraph.Source, "request.args.get()")
	s.Add(propgraph.Source, "args.get()")
	s.Add(propgraph.Sink, "flask_render()")
	return s
}

func TestLearnInfersSanitizer(t *testing.T) {
	res := LearnFromSources(tinyCorpus(6), tinySeed(), Config{
		Constraints: constraints.Options{BackoffCutoff: 2},
	})
	score := res.ScoreOf("html_tools.scrub()", propgraph.Sanitizer)
	if score < 0.3 {
		t.Fatalf("scrub() sanitizer score = %v, want >= 0.3", score)
	}
	entries := res.LearnedEntries(tinySeed())
	found := false
	for _, e := range entries {
		if e.Rep == "html_tools.scrub()" && e.Role == propgraph.Sanitizer {
			found = true
		}
	}
	if !found {
		t.Errorf("scrub() not among learned entries: %v", entries)
	}
}

func TestEmptySeedPredictsNothing(t *testing.T) {
	// §7 Q6: with an empty seed the all-zero assignment is optimal, so no
	// specifications can be inferred.
	res := LearnFromSources(tinyCorpus(4), spec.New(), Config{
		Constraints: constraints.Options{BackoffCutoff: 2},
	})
	if len(res.Predictions) != 0 {
		t.Errorf("predictions with empty seed = %d, want 0", len(res.Predictions))
	}
}

func TestBackoffDecaySelection(t *testing.T) {
	// An event whose first backoff option scores below threshold but whose
	// second scores above it must still be selected — discounted by 0.8.
	gb := new(propgraph.Builder)
	ev := gb.AddEvent(propgraph.KindCall, "t.py", pos(), []string{"a.f()", "f()"})
	g := gb.Build()
	_ = ev
	res := &Result{System: mustSystem(g)}
	res.Solution = make([]float64, len(res.System.Vars))
	res.Solution[res.System.VarID("a.f()", propgraph.Source)] = 0.05
	res.Solution[res.System.VarID("f()", propgraph.Source)] = 0.5
	res.selectRoles(Config{Threshold: 0.1})
	var sel *Prediction
	for i := range res.Predictions {
		if res.Predictions[i].Role == propgraph.Source {
			sel = &res.Predictions[i]
		}
	}
	if sel == nil {
		t.Fatal("no source prediction")
	}
	if sel.Rep != "f()" || sel.Backoff != 1 {
		t.Errorf("selected %+v, want backoff option 1 (f())", sel)
	}
	// 0.8^1 * 0.5 = 0.4 >= 0.1.
}

func TestBackoffDecayRejectsWeakDeepOptions(t *testing.T) {
	gb := new(propgraph.Builder)
	gb.AddEvent(propgraph.KindCall, "t.py", pos(), []string{"a.f()", "f()"})
	g := gb.Build()
	res := &Result{System: mustSystem(g)}
	res.Solution = make([]float64, len(res.System.Vars))
	res.Solution[res.System.VarID("f()", propgraph.Source)] = 0.12
	// 0.8 * 0.12 = 0.096 < 0.1: not selected.
	res.selectRoles(Config{Threshold: 0.1})
	for _, p := range res.Predictions {
		if p.Role == propgraph.Source {
			t.Errorf("unexpected selection %+v", p)
		}
	}
}

func TestLearnedSpecMergesSeed(t *testing.T) {
	seed := tinySeed()
	res := LearnFromSources(tinyCorpus(6), seed, Config{
		Constraints: constraints.Options{BackoffCutoff: 2},
	})
	learned := res.LearnedSpec(seed)
	if !learned.RolesOf("flask.request.args.get()").Has(propgraph.Source) {
		t.Error("seed source missing from learned spec")
	}
	if learned.Len() <= seed.Len() {
		t.Errorf("learned spec (%d entries) not larger than seed (%d)", learned.Len(), seed.Len())
	}
}

// TestLearnedSpecKeepsSinkArgs: a seed sink restricted to some argument
// positions stays restricted in the learned specification, so a checker
// run with it does not report flows into positions the seed excluded.
func TestLearnedSpecKeepsSinkArgs(t *testing.T) {
	seed := tinySeed()
	seed.RestrictSinkArgs("flask_render()", 0)
	res := LearnFromSources(tinyCorpus(6), seed, Config{
		Constraints: constraints.Options{BackoffCutoff: 2},
	})
	learned := res.LearnedSpec(seed)
	if got := learned.SinkArgsOf("flask_render()"); len(got) != 1 || got[0] != 0 {
		t.Errorf("learned sink args of flask_render() = %v, want [0]", got)
	}
}

func TestPredictedCounts(t *testing.T) {
	res := LearnFromSources(tinyCorpus(6), tinySeed(), Config{
		Constraints: constraints.Options{BackoffCutoff: 2},
	})
	counts := res.PredictedCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(res.Predictions) {
		t.Errorf("counts %v do not sum to %d", counts, len(res.Predictions))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := LearnFromSources(tinyCorpus(4), tinySeed(), Config{
		Constraints: constraints.Options{BackoffCutoff: 2},
	})
	b := LearnFromSources(tinyCorpus(4), tinySeed(), Config{
		Constraints: constraints.Options{BackoffCutoff: 2},
	})
	if len(a.Predictions) != len(b.Predictions) {
		t.Fatalf("prediction counts differ: %d vs %d", len(a.Predictions), len(b.Predictions))
	}
	for i := range a.Predictions {
		if a.Predictions[i] != b.Predictions[i] {
			t.Fatalf("prediction %d differs: %+v vs %+v", i, a.Predictions[i], b.Predictions[i])
		}
	}
	for i := range a.Solution {
		if a.Solution[i] != b.Solution[i] {
			t.Fatal("solutions differ")
		}
	}
}

func pos() pytoken.Pos { return pytoken.Pos{Line: 1} }

func mustSystem(g *propgraph.Graph) *constraints.System {
	return constraints.Build(g, spec.New(), constraints.Options{BackoffCutoff: 1})
}
