package experiments

import (
	"reflect"
	"testing"
	"testing/quick"

	"seldon/internal/propgraph"
	"seldon/internal/pytoken"
)

// collapse applies vertex contraction, merging all events that share the
// same most-specific representation into a single vertex (Fig. 7). The
// result is Merlin's collapsed propagation graph (§6.4); it is generally
// unsuitable for taint analysis but usable for specification learning.
// Events without representations are kept as-is, and the representation
// is qualified by kind, so a read and a call never merge. Candidate roles
// of merged events accumulate, and the labels of merged edges join.
func collapse(g *propgraph.Graph) *propgraph.Graph {
	b := propgraph.NewBuilder()
	classOf := make([]int, len(g.Events))
	byRep := make(map[uint64]int)
	var roles []propgraph.RoleSet
	for id, e := range g.Events {
		if ids := g.RepIDs(id); len(ids) > 0 {
			key := uint64(e.Kind)<<32 | uint64(ids[0])
			if prev, ok := byRep[key]; ok {
				roles[prev] |= e.Roles
				classOf[id] = prev
				continue
			}
			byRep[key] = b.Len()
		}
		classOf[id] = b.AddEvent(e.Kind, g.File(id), e.Pos, g.Reps(id))
		roles = append(roles, e.Roles)
	}
	for src := range g.Events {
		for _, dst := range g.Succs(src) {
			b.AddEdge(classOf[src], classOf[dst])
		}
	}
	for src := range g.Events {
		for _, dst := range g.Succs(src) {
			for _, a := range g.EdgeArgs(src, dst) {
				b.AddEdgeArg(classOf[src], classOf[dst], a)
			}
		}
	}
	out := b.Build()
	for id := range out.Events {
		out.Events[id].Roles = roles[id]
	}
	return out
}

func addEv(b *propgraph.Builder, kind propgraph.EventKind, reps ...string) int {
	return b.AddEvent(kind, "t.py", pytoken.Pos{Line: 1}, reps)
}

func TestCollapseMergesEqualReps(t *testing.T) {
	// Paper Fig. 8: two san() events with the same representation merge,
	// creating a spurious source -> sink path in the collapsed graph.
	b := propgraph.NewBuilder()
	src := addEv(b, propgraph.KindCall, "src()")
	san1 := addEv(b, propgraph.KindCall, "san()")
	san2 := addEv(b, propgraph.KindCall, "san()")
	sink := addEv(b, propgraph.KindCall, "sink()")
	b.AddEdge(src, san1)
	b.AddEdge(san2, sink)
	g := b.Build()

	c := collapse(g)
	if len(c.Events) != 3 {
		t.Fatalf("collapsed events = %d, want 3", len(c.Events))
	}
	// In the collapsed graph a path src -> san -> sink must exist.
	reach := c.ForwardReachable(0)
	found := false
	for _, id := range reach {
		if c.NumReps(id) > 0 && c.Rep(id, 0) == "sink()" {
			found = true
		}
	}
	if !found {
		t.Error("collapsed graph lost the contracted path")
	}
	// The uncollapsed graph must NOT have that path.
	for _, id := range g.ForwardReachable(src) {
		if g.Rep(id, 0) == "sink()" {
			t.Error("uncollapsed graph has spurious path")
		}
	}
}

func TestCollapseKeepsKindsSeparate(t *testing.T) {
	b := propgraph.NewBuilder()
	addEv(b, propgraph.KindCall, "x.y")
	addEv(b, propgraph.KindRead, "x.y")
	c := collapse(b.Build())
	if len(c.Events) != 2 {
		t.Errorf("a read and a call with equal reps merged: %d events", len(c.Events))
	}
}

// Property: collapsing preserves path existence between representation
// classes (contraction can only add connectivity, never remove it).
func TestCollapsePreservesReachabilityProperty(t *testing.T) {
	f := func(edges []uint8, nEvents uint8) bool {
		n := int(nEvents%12) + 2
		b := propgraph.NewBuilder()
		for i := 0; i < n; i++ {
			// Reps chosen from a small pool to force merges.
			addEv(b, propgraph.KindCall, []string{"a()", "b()", "c()", "d()"}[i%4])
		}
		for i := 0; i+1 < len(edges); i += 2 {
			src, dst := int(edges[i])%n, int(edges[i+1])%n
			if src < dst { // keep acyclic, like real propagation graphs
				b.AddEdge(src, dst)
			}
		}
		g := b.Build()
		c := collapse(g)
		classOf := make(map[string]int)
		for id := range c.Events {
			classOf[c.Rep(id, 0)] = id
		}
		for src := range g.Events {
			for _, dst := range g.ForwardReachable(src) {
				cs := classOf[g.Rep(src, 0)]
				cd := classOf[g.Rep(dst, 0)]
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

func TestCollapsePreservesLabels(t *testing.T) {
	b := propgraph.NewBuilder()
	a1 := addEv(b, propgraph.KindCall, "a()")
	a2 := addEv(b, propgraph.KindCall, "a()")
	s := addEv(b, propgraph.KindCall, "sink()")
	b.AddEdgeArg(a1, s, 0)
	b.AddEdgeArg(a2, s, 1)
	c := collapse(b.Build())
	if len(c.Events) != 2 {
		t.Fatalf("collapsed events = %d", len(c.Events))
	}
	// Both labels land on the contracted edge.
	var got []int
	for src := range c.Events {
		if labels := c.EdgeArgs(src, 1-src); labels != nil {
			got = labels
		}
	}
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("contracted labels = %v", got)
	}
}
