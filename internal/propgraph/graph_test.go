package propgraph

import (
	"reflect"
	"testing"
	"testing/quick"

	"seldon/internal/pytoken"
)

func addEv(g *Graph, kind EventKind, reps ...string) *Event {
	return g.AddEvent(kind, "t.py", pytoken.Pos{Line: 1}, reps)
}

func TestAddEdgeDeduplicatesAndRejectsSelfLoops(t *testing.T) {
	g := New()
	a := addEv(g, KindCall, "a()")
	b := addEv(g, KindCall, "b()")
	g.AddEdge(a.ID, b.ID)
	g.AddEdge(a.ID, b.ID)
	g.AddEdge(a.ID, a.ID)
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1", g.NumEdges())
	}
	if !reflect.DeepEqual(g.Succs(a.ID), []int{b.ID}) {
		t.Errorf("succs = %v", g.Succs(a.ID))
	}
	if !reflect.DeepEqual(g.Preds(b.ID), []int{a.ID}) {
		t.Errorf("preds = %v", g.Preds(b.ID))
	}
}

func TestCandidateRoles(t *testing.T) {
	if got := CandidateRoles(KindCall); got != AllRoles {
		t.Errorf("call roles = %b", got)
	}
	for _, k := range []EventKind{KindRead, KindParam} {
		got := CandidateRoles(k)
		if !got.Has(Source) || got.Has(Sanitizer) || got.Has(Sink) {
			t.Errorf("%v roles = %b, want source-only", k, got)
		}
	}
}

func TestUnionDisjoint(t *testing.T) {
	g1 := New()
	a := addEv(g1, KindCall, "a()")
	b := addEv(g1, KindCall, "b()")
	g1.AddEdge(a.ID, b.ID)

	g2 := New()
	c := addEv(g2, KindRead, "x.y")
	d := addEv(g2, KindCall, "b()") // same rep as b, different program
	g2.AddEdge(c.ID, d.ID)

	u := Union(g1, g2)
	if len(u.Events) != 4 {
		t.Fatalf("events = %d", len(u.Events))
	}
	if u.NumEdges() != 2 {
		t.Errorf("edges = %d", u.NumEdges())
	}
	// No cross-program edges may appear.
	for _, s := range u.Succs(1) {
		if s >= 2 {
			t.Errorf("cross-program edge 1 -> %d", s)
		}
	}
	// Union must not mutate inputs.
	if g1.Events[0].ID != 0 || g2.Events[0].ID != 0 {
		t.Error("Union renumbered input events")
	}
}

func TestCollapseMergesEqualReps(t *testing.T) {
	// Paper Fig. 8: two san() events with the same representation merge,
	// creating a spurious source -> sink path in the collapsed graph.
	g := New()
	src := addEv(g, KindCall, "src()")
	san1 := addEv(g, KindCall, "san()")
	san2 := addEv(g, KindCall, "san()")
	sink := addEv(g, KindCall, "sink()")
	g.AddEdge(src.ID, san1.ID)
	g.AddEdge(san2.ID, sink.ID)

	c := g.Collapse()
	if len(c.Events) != 3 {
		t.Fatalf("collapsed events = %d, want 3", len(c.Events))
	}
	// In the collapsed graph a path src -> san -> sink must exist.
	reach := c.ForwardReachable(0)
	found := false
	for _, id := range reach {
		if c.Events[id].NumReps() > 0 && c.Events[id].Rep(0) == "sink()" {
			found = true
		}
	}
	if !found {
		t.Error("collapsed graph lost the contracted path")
	}
	// The uncollapsed graph must NOT have that path.
	for _, id := range g.ForwardReachable(src.ID) {
		if g.Events[id].Rep(0) == "sink()" {
			t.Error("uncollapsed graph has spurious path")
		}
	}
}

func TestCollapseKeepsKindsSeparate(t *testing.T) {
	g := New()
	addEv(g, KindCall, "x.y")
	addEv(g, KindRead, "x.y")
	c := g.Collapse()
	if len(c.Events) != 2 {
		t.Errorf("a read and a call with equal reps merged: %d events", len(c.Events))
	}
}

func TestReachability(t *testing.T) {
	g := New()
	var ids []int
	for i := 0; i < 5; i++ {
		ids = append(ids, addEv(g, KindCall, "e()").ID)
	}
	// 0 -> 1 -> 2, 0 -> 3; 4 isolated
	g.AddEdge(ids[0], ids[1])
	g.AddEdge(ids[1], ids[2])
	g.AddEdge(ids[0], ids[3])
	if got := g.ForwardReachable(ids[0]); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("forward = %v", got)
	}
	if got := g.BackwardReachable(ids[2]); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("backward = %v", got)
	}
	if got := g.ForwardReachable(ids[4]); len(got) != 0 {
		t.Errorf("isolated = %v", got)
	}
}

func TestComputeStats(t *testing.T) {
	g := New()
	addEv(g, KindCall, "a()", "b()")
	addEv(g, KindRead, "x.y")
	addEv(g, KindParam, "f(param x)")
	g.AddEvent(KindCall, "t.py", pytoken.Pos{}, nil) // no reps: not a candidate
	g.AddEdge(0, 3)
	st := g.ComputeStats()
	if st.Events != 4 || st.Candidates != 3 || st.Edges != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.AvgBackoff != 4.0/3.0 {
		t.Errorf("avg backoff = %v", st.AvgBackoff)
	}
	if st.CallEvents != 2 || st.ReadEvents != 1 || st.ParamEvents != 1 {
		t.Errorf("kind counts = %+v", st)
	}
}

// Property: collapsing preserves path existence between representation
// classes (contraction can only add connectivity, never remove it).
func TestCollapsePreservesReachabilityProperty(t *testing.T) {
	f := func(edges []uint8, nEvents uint8) bool {
		n := int(nEvents%12) + 2
		g := New()
		for i := 0; i < n; i++ {
			// Reps chosen from a small pool to force merges.
			addEv(g, KindCall, []string{"a()", "b()", "c()", "d()"}[i%4])
		}
		for i := 0; i+1 < len(edges); i += 2 {
			src, dst := int(edges[i])%n, int(edges[i+1])%n
			if src < dst { // keep acyclic, like real propagation graphs
				g.AddEdge(src, dst)
			}
		}
		c := g.Collapse()
		classOf := make(map[string]int)
		for _, e := range c.Events {
			classOf[e.Rep(0)] = e.ID
		}
		for src := range g.Events {
			for _, dst := range g.ForwardReachable(src) {
				cs := classOf[g.Events[src].Rep(0)]
				cd := classOf[g.Events[dst].Rep(0)]
				if cs == cd {
					continue
				}
				ok := false
				for _, r := range c.ForwardReachable(cs) {
					if r == cd {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPaperExampleReps(t *testing.T) {
	// §3.2: self.receipt() inside ESCPOSDriver::status(self, eprint),
	// where ESCPOSDriver extends base_driver.ThreadDriver.
	ctx := RepContext{
		Function:   "status",
		Class:      "ESCPOSDriver",
		ClassBases: []string{"base_driver.ThreadDriver"},
	}
	got := ctx.ParamRootedReps("self", []string{"receipt()"})
	want := []string{
		"ESCPOSDriver::status(param self).receipt()",
		"base_driver.ThreadDriver::status(param self).receipt()",
		"status(param self).receipt()",
		"self.receipt()",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v\nwant %v", got, want)
	}
}

func TestParamEventReps(t *testing.T) {
	ctx := RepContext{Function: "media"}
	if got := ctx.ParamEventReps("f"); !reflect.DeepEqual(got, []string{"media(param f)"}) {
		t.Errorf("got %v", got)
	}
	// The bare parameter name must not be a representation of the event.
	ctx2 := RepContext{Function: "get", Class: "MethodView", ClassBases: []string{"flask.views.MethodView"}}
	got := ctx2.ParamEventReps("filename")
	want := []string{
		"MethodView::get(param filename)",
		"flask.views.MethodView::get(param filename)",
		"get(param filename)",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v\nwant %v", got, want)
	}
}

func TestSuffixReps(t *testing.T) {
	got := AppendSuffixReps(nil, []string{"flask", "request", "form", "get()"})
	want := []string{"flask.request.form.get()", "request.form.get()", "form.get()"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v\nwant %v", got, want)
	}
	if got := AppendSuffixReps(nil, []string{"markdown()"}); !reflect.DeepEqual(got, []string{"markdown()"}) {
		t.Errorf("single segment: %v", got)
	}
	if got := AppendSuffixReps(nil, nil); got != nil {
		t.Errorf("empty path: %v", got)
	}
}

func TestSubscriptSegment(t *testing.T) {
	if got := SubscriptSegment("files", "'f'", true); got != "files['f']" {
		t.Errorf("got %q", got)
	}
	if got := SubscriptSegment("_hash()", "k", false); got != "_hash()[]" {
		t.Errorf("got %q", got)
	}
}

func TestRoleSetOps(t *testing.T) {
	var s RoleSet
	if s.Has(Source) {
		t.Error("empty set has source")
	}
	s = s.With(Sink)
	if !s.Has(Sink) || s.Has(Source) {
		t.Errorf("set = %b", s)
	}
	if len(Roles()) != int(NumRoles) {
		t.Error("Roles() incomplete")
	}
	for _, r := range Roles() {
		if got, ok := ParseRole(r.String()); !ok || got != r {
			t.Errorf("ParseRole(%q) = %v, %v", r.String(), got, ok)
		}
	}
	for _, s := range []string{"", "Sink", "Role(3)", "propagator"} {
		if _, ok := ParseRole(s); ok {
			t.Errorf("ParseRole(%q) accepted", s)
		}
	}
}
