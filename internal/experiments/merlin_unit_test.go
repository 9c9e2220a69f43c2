package experiments

import (
	"errors"
	"testing"

	"seldon/internal/dataflow"
	"seldon/internal/propgraph"
	"seldon/internal/pytoken"
	"seldon/internal/spec"
)

func chain(reps ...string) *propgraph.Graph {
	gb := propgraph.NewBuilder()
	prev := -1
	for _, r := range reps {
		e := gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{Line: 1}, []string{r})
		if prev >= 0 {
			gb.AddEdge(prev, e)
		}
		prev = e
	}
	return gb.Build()
}

func TestInferSanitizerBetweenSeededEndpoints(t *testing.T) {
	g := chain("src()", "mid()", "sink()")
	seed := spec.New()
	seed.Add(propgraph.Source, "src()")
	seed.Add(propgraph.Sink, "sink()")
	res, err := Infer(g, seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Marginals[1][propgraph.Sanitizer]; m < 0.6 {
		t.Errorf("sanitizer marginal = %v, want >= 0.6", m)
	}
	// Seeded roles stay pinned.
	if m := res.Marginals[0][propgraph.Source]; m < 0.99 {
		t.Errorf("seeded source marginal = %v", m)
	}
	if m := res.Marginals[0][propgraph.Sink]; m > 0.01 {
		t.Errorf("seeded source's sink marginal = %v, want 0", m)
	}
}

func TestGibbsEngineAgreesOnDirection(t *testing.T) {
	g := chain("src()", "mid()", "sink()")
	seed := spec.New()
	seed.Add(propgraph.Source, "src()")
	seed.Add(propgraph.Sink, "sink()")
	res, err := Infer(g, seed, Options{Inference: GibbsSampling, RandSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Marginals[1][propgraph.Sanitizer]; m < 0.55 {
		t.Errorf("gibbs sanitizer marginal = %v, want >= 0.55", m)
	}
}

func TestDownstreamRoleSuppression(t *testing.T) {
	// Fig. 6c: events downstream of a seeded source should have lower
	// source marginals than the pinned source.
	g := chain("src()", "later()")
	seed := spec.New()
	seed.Add(propgraph.Source, "src()")
	res, err := Infer(g, seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Marginals[1][propgraph.Source]; m > 0.35 {
		t.Errorf("downstream source marginal = %v, want suppressed", m)
	}
}

func TestCandidateCounts(t *testing.T) {
	gb := propgraph.NewBuilder()
	gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"a()"})
	gb.AddEvent(propgraph.KindRead, "t.py", pytoken.Pos{}, []string{"x.y"})
	gb.AddEvent(propgraph.KindParam, "t.py", pytoken.Pos{}, []string{"f(param p)"})
	g := gb.Build()
	res, err := Infer(g, spec.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates[propgraph.Source] != 3 {
		t.Errorf("source candidates = %d, want 3", res.Candidates[propgraph.Source])
	}
	if res.Candidates[propgraph.Sanitizer] != 1 || res.Candidates[propgraph.Sink] != 1 {
		t.Errorf("candidates = %v", res.Candidates)
	}
}

func TestBlacklistRemovesCandidates(t *testing.T) {
	g := chain("result.append()", "sink()")
	seed := spec.New()
	seed.AddBlacklist("*.append()")
	res, err := Infer(g, seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates[propgraph.Source] != 1 {
		t.Errorf("source candidates = %d, want 1 (append blacklisted)", res.Candidates[propgraph.Source])
	}
}

func TestMaxFactorsAborts(t *testing.T) {
	// A dense chain exceeds a tiny factor budget.
	g := chain("a()", "b()", "c()", "d()", "e()", "f()")
	_, err := Infer(g, spec.New(), Options{MaxFactors: 3})
	var tooLarge *ErrTooLarge
	if !errors.As(err, &tooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestPredictAndTopK(t *testing.T) {
	g := chain("src()", "mid()", "sink()")
	seed := spec.New()
	seed.Add(propgraph.Source, "src()")
	seed.Add(propgraph.Sink, "sink()")
	res, err := Infer(g, seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	preds := res.Predict(0.95)
	if len(preds) == 0 {
		t.Fatal("no predictions at 0.95")
	}
	for i := 1; i < len(preds); i++ {
		if preds[i].Marginal > preds[i-1].Marginal {
			t.Error("predictions not sorted")
		}
	}
	top := res.TopK(propgraph.Sanitizer, 2)
	if len(top) != 2 {
		t.Fatalf("topK = %d", len(top))
	}
	if top[0].Rep != "mid()" {
		t.Errorf("top sanitizer = %q, want mid()", top[0].Rep)
	}
}

func TestCollapsedVersusUncollapsed(t *testing.T) {
	// Fig. 8: in the collapsed graph the two san() events merge, creating
	// a spurious src -> san -> sink flow that lets Merlin infer the
	// sanitizer; the uncollapsed graph has no such triple.
	src := `def f():
    x = src()
    y = san(x)

def g():
    x = 1
    y = san(x)
    sink(y)
`
	g, err := dataflow.AnalyzeSource("t.py", src)
	if err != nil {
		t.Fatal(err)
	}
	seed := spec.New()
	seed.Add(propgraph.Source, "src()")
	seed.Add(propgraph.Sink, "sink()")

	collapsed := collapse(g)
	resC, err := Infer(collapsed, seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resU, err := Infer(g, seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sanMarginal := func(res *Result, pg *propgraph.Graph) float64 {
		best := 0.0
		for id := range pg.Events {
			if pg.NumReps(id) > 0 && pg.Rep(id, 0) == "san()" {
				if m := res.Marginals[id][propgraph.Sanitizer]; m > best {
					best = m
				}
			}
		}
		return best
	}
	mc := sanMarginal(resC, collapsed)
	mu := sanMarginal(resU, g)
	if mc <= mu+0.05 {
		t.Errorf("collapsed marginal %v should exceed uncollapsed %v (spurious flow)", mc, mu)
	}
}

func TestFactorCountGrowsSuperlinearly(t *testing.T) {
	// The scalability story of Table 2: doubling the chain length more
	// than doubles the number of factors (triple enumeration).
	count := func(n int) int {
		reps := make([]string, n)
		for i := range reps {
			reps[i] = "e()"
		}
		res, err := Infer(chain(reps...), spec.New(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.NumFactors
	}
	f10, f20 := count(10), count(20)
	if f20 < 4*f10 {
		t.Errorf("factors grew from %d to %d; expected superlinear growth", f10, f20)
	}
}
