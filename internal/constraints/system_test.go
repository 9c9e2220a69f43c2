package constraints

import (
	"testing"

	"seldon/internal/dataflow"
	"seldon/internal/lp"
	"seldon/internal/propgraph"
	"seldon/internal/pytoken"
	"seldon/internal/spec"
)

func chainGraph(reps ...string) *propgraph.Graph {
	gb := new(propgraph.Builder)
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

func TestChainConstraintCounts(t *testing.T) {
	// For a 3-call chain a->b->c where every event is a candidate for
	// every role, the Fig. 4 patterns yield exactly 3 constraints each.
	g := chainGraph("a()", "b()", "c()")
	sys := Build(g, spec.New(), Options{BackoffCutoff: 1})
	if sys.CountA != 3 || sys.CountB != 3 || sys.CountC != 3 {
		t.Errorf("counts = %d/%d/%d, want 3/3/3", sys.CountA, sys.CountB, sys.CountC)
	}
	if len(sys.Problem.Constraints) != 9 {
		t.Errorf("constraints = %d, want 9", len(sys.Problem.Constraints))
	}
	// 3 events x 3 roles = 9 variables.
	if len(sys.Vars) != 9 {
		t.Errorf("vars = %d, want 9", len(sys.Vars))
	}
}

func TestSeedPinsKnownVariables(t *testing.T) {
	g := chainGraph("src()", "mid()", "sink()")
	seed := spec.New()
	seed.Add(propgraph.Source, "src()")
	seed.Add(propgraph.Sink, "sink()")
	sys := Build(g, seed, Options{BackoffCutoff: 1})

	if v := sys.VarID("src()", propgraph.Source); sys.Problem.Known[v] != 1 {
		t.Error("seed source not pinned to 1")
	}
	if v := sys.VarID("src()", propgraph.Sanitizer); sys.Problem.Known[v] != 0 {
		t.Error("seed source's sanitizer score not pinned to 0")
	}
	if v := sys.VarID("src()", propgraph.Sink); sys.Problem.Known[v] != 0 {
		t.Error("seed source's sink score not pinned to 0")
	}
	if v := sys.VarID("mid()", propgraph.Sanitizer); sys.Problem.Known[v] != 0 {
		if _, pinned := sys.Problem.Known[v]; pinned {
			t.Error("unlabeled variable must not be pinned")
		}
	}
}

func TestInferSanitizerBetweenSeededSourceAndSink(t *testing.T) {
	// The core inference behaviour: a known source flowing into a known
	// sink through an unlabeled call forces that call's sanitizer score
	// up (Fig. 4c).
	g := chainGraph("src()", "mid()", "sink()")
	seed := spec.New()
	seed.Add(propgraph.Source, "src()")
	seed.Add(propgraph.Sink, "sink()")
	sys := Build(g, seed, Options{BackoffCutoff: 1})
	res := lp.Minimize(sys.Problem, lp.Options{Iterations: 2000})
	// The score settles at the equilibrium of Fig. 4c (pushing up) and
	// Fig. 4a (capping at src + C), i.e. exactly C = 0.75 — the same
	// score plateau visible throughout the paper's Table 8.
	san := res.X[sys.VarID("mid()", propgraph.Sanitizer)]
	if san < 0.7 {
		t.Errorf("inferred sanitizer score = %v, want ~0.75", san)
	}
}

func TestInferSinkAfterSeededSourceAndSanitizer(t *testing.T) {
	// Fig. 4b: source -> sanitizer -> unlabeled call pushes the sink
	// score of the last call up.
	g := chainGraph("src()", "san()", "mystery()")
	seed := spec.New()
	seed.Add(propgraph.Source, "src()")
	seed.Add(propgraph.Sanitizer, "san()")
	sys := Build(g, seed, Options{BackoffCutoff: 1})
	res := lp.Minimize(sys.Problem, lp.Options{Iterations: 2000})
	snk := res.X[sys.VarID("mystery()", propgraph.Sink)]
	if snk < 0.5 {
		t.Errorf("inferred sink score = %v, want >= 0.5", snk)
	}
}

func TestInferSourceBeforeSanitizerAndSink(t *testing.T) {
	// Fig. 4a: unlabeled -> sanitizer -> sink pushes the first call's
	// source score up.
	g := chainGraph("mystery()", "san()", "sink()")
	seed := spec.New()
	seed.Add(propgraph.Sanitizer, "san()")
	seed.Add(propgraph.Sink, "sink()")
	sys := Build(g, seed, Options{BackoffCutoff: 1})
	res := lp.Minimize(sys.Problem, lp.Options{Iterations: 2000})
	src := res.X[sys.VarID("mystery()", propgraph.Source)]
	if src < 0.5 {
		t.Errorf("inferred source score = %v, want >= 0.5", src)
	}
}

func TestReadEventsOnlySourceCandidates(t *testing.T) {
	gb := new(propgraph.Builder)
	read := gb.AddEvent(propgraph.KindRead, "t.py", pytoken.Pos{}, []string{"x.y"})
	call := gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"f()"})
	gb.AddEdge(read, call)
	g := gb.Build()
	sys := Build(g, spec.New(), Options{BackoffCutoff: 1})
	if sys.VarID("x.y", propgraph.Source) < 0 {
		t.Error("read event must have a source variable")
	}
	if sys.VarID("x.y", propgraph.Sanitizer) >= 0 || sys.VarID("x.y", propgraph.Sink) >= 0 {
		t.Error("read event must not have sanitizer/sink variables")
	}
}

func TestBackoffAveraging(t *testing.T) {
	gb := new(propgraph.Builder)
	e1 := gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"a.b.f()", "b.f()"})
	snk := gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"sink()"})
	san := gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"san()"})
	gb.AddEdge(e1, san)
	gb.AddEdge(san, snk)
	g := gb.Build()
	sys := Build(g, spec.New(), Options{BackoffCutoff: 1})
	// Find a constraint mentioning e1's source variables; the two backoff
	// options must each carry coefficient 1/2.
	vFull := sys.VarID("a.b.f()", propgraph.Source)
	vShort := sys.VarID("b.f()", propgraph.Source)
	found := false
	for _, c := range sys.Problem.Constraints {
		for _, side := range [][]lp.Term{c.LHS, c.RHS} {
			okFull, okShort := false, false
			for _, term := range side {
				if term.Var == vFull && term.Coef == 0.5 {
					okFull = true
				}
				if term.Var == vShort && term.Coef == 0.5 {
					okShort = true
				}
			}
			if okFull && okShort {
				found = true
			}
		}
	}
	if !found {
		t.Error("no constraint with 1/2-averaged backoff terms")
	}
}

func TestFrequencyCutoff(t *testing.T) {
	gb := new(propgraph.Builder)
	// "rare()" occurs once, "common()" five times.
	for i := 0; i < 5; i++ {
		gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"common()"})
	}
	gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"rare()"})
	g := gb.Build()
	sys := Build(g, spec.New(), Options{BackoffCutoff: 5})
	if sys.VarID("common()", propgraph.Source) < 0 {
		t.Error("common rep lost")
	}
	if sys.VarID("rare()", propgraph.Source) >= 0 {
		t.Error("rare rep must be cut off")
	}
	// A rare rep that appears in the seed survives.
	seed := spec.New()
	seed.Add(propgraph.Sink, "rare()")
	sys2 := Build(g, seed, Options{BackoffCutoff: 5})
	if sys2.VarID("rare()", propgraph.Sink) < 0 {
		t.Error("seeded rare rep must survive the cutoff")
	}
}

func TestBlacklistRemovesReps(t *testing.T) {
	g := chainGraph("result.append()", "san()", "sink()")
	seed := spec.New()
	seed.AddBlacklist("*.append()")
	sys := Build(g, seed, Options{BackoffCutoff: 1})
	if sys.VarID("result.append()", propgraph.Source) >= 0 {
		t.Error("blacklisted rep must have no variables")
	}
	if sys.InfoFor(0) != nil {
		t.Error("event with only blacklisted reps must not be a candidate")
	}
}

func TestEventsInDifferentComponentsShareVariables(t *testing.T) {
	// Two programs using the same API must map to the same variable —
	// the cross-project learning mechanism (§4.1).
	g1 := chainGraph("src()", "api()", "sink()")
	g2 := chainGraph("src()", "api()", "other()")
	g := propgraph.Union(g1, g2)
	sys := Build(g, spec.New(), Options{BackoffCutoff: 1})
	// api() appears twice but yields one variable per role.
	count := 0
	for _, v := range sys.Vars {
		if v.Rep == "api()" {
			count++
		}
	}
	if count != 3 {
		t.Errorf("api() variables = %d, want 3", count)
	}
}

func TestFigure2EndToEnd(t *testing.T) {
	src := `from yak.web import app
from flask import request
from werkzeug import secure_filename
import os

blog_dir = app.config['PATH']

@app.route('/media/', methods=['POST'])
def media():
    filename = request.files['f'].filename
    filename = secure_filename(filename)
    path = os.path.join(blog_dir, filename)
    if not os.path.exists(path):
        request.files['f'].save(path)
`
	g, err := dataflow.AnalyzeSource("app.py", src)
	if err != nil {
		t.Fatal(err)
	}
	// Seed both the fully qualified and the suffix representations, as the
	// paper's App. B seed does (it lists request.form.get() alongside
	// flask.request.form.get()): with backoff averaging, a seed that pins
	// only one of k options contributes only 1/k to the constraint sums.
	seed := spec.New()
	seed.Add(propgraph.Source, "flask.request.files['f'].filename")
	seed.Add(propgraph.Source, "request.files['f'].filename")
	seed.Add(propgraph.Source, "files['f'].filename")
	seed.Add(propgraph.Sink, "flask.request.files['f'].save()")
	seed.Add(propgraph.Sink, "request.files['f'].save()")
	seed.Add(propgraph.Sink, "files['f'].save()")
	sys := Build(g, seed, Options{BackoffCutoff: 1})
	if len(sys.Problem.Constraints) == 0 {
		t.Fatal("no constraints generated")
	}
	res := lp.Minimize(sys.Problem, lp.Options{Iterations: 2000})
	// secure_filename lies between the seeded source and sink: its
	// sanitizer score must rise (this is exactly Fig. 2c constraint 3).
	id := sys.VarID("werkzeug.secure_filename()", propgraph.Sanitizer)
	if id < 0 {
		t.Fatal("no sanitizer variable for secure_filename")
	}
	if res.X[id] < 0.3 {
		t.Errorf("secure_filename sanitizer score = %v, want >= 0.3", res.X[id])
	}
}

func TestWeakComponents(t *testing.T) {
	gb := new(propgraph.Builder)
	for i := 0; i < 5; i++ {
		gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"e()"})
	}
	gb.AddEdge(0, 1)
	gb.AddEdge(2, 1) // weakly connects 2 to {0,1}
	gb.AddEdge(3, 4)
	g := gb.Build()
	var sc flowScratch
	ncomp := sc.components(g, evRange{0, len(g.Events)})
	comp := sc.comp
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("0,1,2 should share a component: %v", comp)
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Errorf("3,4 should form their own component: %v", comp)
	}
	if ncomp != 2 {
		t.Errorf("ncomp = %d, want 2", ncomp)
	}
}

func TestMaxComponentSkip(t *testing.T) {
	g := chainGraph("a()", "b()", "c()", "d()")
	sys := Build(g, spec.New(), Options{BackoffCutoff: 1, maxComponent: 2})
	if sys.SkippedComponents != 1 {
		t.Errorf("skipped = %d, want 1", sys.SkippedComponents)
	}
	if len(sys.Problem.Constraints) != 0 {
		t.Errorf("constraints = %d, want 0", len(sys.Problem.Constraints))
	}
}

func TestCyclicGraphSupported(t *testing.T) {
	// A cycle src -> mid -> back -> mid ... -> sink: reachability must be
	// computed by the fixpoint fallback, and the Fig. 4c constraint must
	// still let the solver infer the sanitizer between seeded endpoints.
	gb := new(propgraph.Builder)
	src := gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"src()"})
	mid := gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"mid()"})
	back := gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"back()"})
	snk := gb.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{}, []string{"sink()"})
	gb.AddEdge(src, mid)
	gb.AddEdge(mid, back)
	gb.AddEdge(back, mid) // cycle
	gb.AddEdge(mid, snk)
	g := gb.Build()

	seed := spec.New()
	seed.Add(propgraph.Source, "src()")
	seed.Add(propgraph.Sink, "sink()")
	sys := Build(g, seed, Options{BackoffCutoff: 1})
	if len(sys.Problem.Constraints) == 0 {
		t.Fatal("no constraints on cyclic graph")
	}
	res := lp.Minimize(sys.Problem, lp.Options{Iterations: 2000})
	best := res.X[sys.VarID("mid()", propgraph.Sanitizer)]
	if b := res.X[sys.VarID("back()", propgraph.Sanitizer)]; b > best {
		best = b
	}
	if best < 0.3 {
		t.Errorf("no sanitizer inferred on cycle: mid/back max = %v", best)
	}
}
