package propgraph

import (
	"bytes"
	"reflect"
	"testing"

	"seldon/internal/pytoken"
)

func addEv(b *Builder, kind EventKind, reps ...string) int {
	return b.AddEvent(kind, "t.py", pytoken.Pos{Line: 1}, reps)
}

func TestAddEdgeDeduplicatesAndRejectsSelfLoops(t *testing.T) {
	gb := new(Builder)
	a := addEv(gb, KindCall, "a()")
	b := addEv(gb, KindCall, "b()")
	gb.AddEdge(a, b)
	gb.AddEdge(a, b)
	gb.AddEdge(a, a)
	g := gb.Build()
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1", g.NumEdges())
	}
	if !reflect.DeepEqual(g.Succs(a), []int{b}) {
		t.Errorf("succs = %v", g.Succs(a))
	}
	if !reflect.DeepEqual(g.Preds(b), []int{a}) {
		t.Errorf("preds = %v", g.Preds(b))
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
	b1 := new(Builder)
	a := addEv(b1, KindCall, "a()")
	b := addEv(b1, KindCall, "b()")
	b1.AddEdge(a, b)
	g1 := b1.Build()

	b2 := new(Builder)
	c := addEv(b2, KindRead, "x.y")
	d := addEv(b2, KindCall, "b()") // same rep as b, different program
	b2.AddEdge(c, d)
	g2 := b2.Build()
	enc1, enc2 := g1.AppendBinary(nil), g2.AppendBinary(nil)

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
	if !bytes.Equal(g1.AppendBinary(nil), enc1) || !bytes.Equal(g2.AppendBinary(nil), enc2) {
		t.Error("Union changed its inputs")
	}
}

func TestReachability(t *testing.T) {
	b := new(Builder)
	var ids []int
	for i := 0; i < 5; i++ {
		ids = append(ids, addEv(b, KindCall, "e()"))
	}
	// 0 -> 1 -> 2, 0 -> 3; 4 isolated
	b.AddEdge(ids[0], ids[1])
	b.AddEdge(ids[1], ids[2])
	b.AddEdge(ids[0], ids[3])
	g := b.Build()
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
	b := new(Builder)
	addEv(b, KindCall, "a()", "b()")
	addEv(b, KindRead, "x.y")
	addEv(b, KindParam, "f(param x)")
	b.AddEvent(KindCall, "t.py", pytoken.Pos{}, nil) // no reps: not a candidate
	b.AddEdge(0, 3)
	st := b.Build().ComputeStats()
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
