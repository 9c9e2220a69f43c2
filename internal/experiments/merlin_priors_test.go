package experiments

import (
	"testing"

	"seldon/internal/propgraph"
	"seldon/internal/pytoken"
	"seldon/internal/spec"
)

func TestSanitizerPriorReflectsFlowFraction(t *testing.T) {
	// Event m1 sits on a source→sink path (high prior); event m2 hangs
	// off to the side with no sink downstream (low prior). With no seed
	// at all, the priors alone separate their sanitizer marginals.
	gb := propgraph.NewBuilder()
	src := gb.AddEvent(propgraph.KindRead, "t.py", pytoken.Pos{}, []string{"in.data"})
	m1 := gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"m1()"})
	snk := gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"snk()"})
	m2 := gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"m2()"})
	dead := gb.AddEvent(propgraph.KindRead, "t.py", pytoken.Pos{}, []string{"x.y"})
	gb.AddEdge(src, m1)
	gb.AddEdge(m1, snk)
	gb.AddEdge(dead, m2) // m2 has no downstream sink
	g := gb.Build()

	res, err := Infer(g, spec.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1 := res.Marginals[m1][propgraph.Sanitizer]
	p2 := res.Marginals[m2][propgraph.Sanitizer]
	if p1 <= p2 {
		t.Errorf("on-path sanitizer marginal (%v) should exceed off-path (%v)", p1, p2)
	}
}

func TestSeedHardPriorWinsOverFlowEvidence(t *testing.T) {
	// Even though mid() sits between a source and sink (which raises its
	// sanitizer belief), seeding it as a SINK pins the sanitizer to 0.
	g := chain("src()", "mid()", "snk()")
	seed := spec.New()
	seed.Add(propgraph.Source, "src()")
	seed.Add(propgraph.Sink, "snk()")
	seed.Add(propgraph.Sink, "mid()")
	res, err := Infer(g, seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Marginals[1][propgraph.Sanitizer]; m > 0.01 {
		t.Errorf("seeded sink's sanitizer marginal = %v, want 0", m)
	}
	if m := res.Marginals[1][propgraph.Sink]; m < 0.99 {
		t.Errorf("seeded sink marginal = %v, want 1", m)
	}
}

func TestEventsWithoutRepsIgnored(t *testing.T) {
	gb := propgraph.NewBuilder()
	gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, nil)
	gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"f()"})
	g := gb.Build()
	res, err := Infer(g, spec.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates[propgraph.Source] != 1 {
		t.Errorf("candidates = %v, rep-less event should be skipped", res.Candidates)
	}
	if res.Marginals[0][propgraph.Source] != 0 {
		t.Error("rep-less event has a marginal")
	}
}
