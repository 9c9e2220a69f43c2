package propgraph

import (
	"reflect"
	"testing"
)

func TestAddEdgeArgLabels(t *testing.T) {
	gb := new(Builder)
	a := addEv(gb, KindCall, "a()")
	b := addEv(gb, KindCall, "b()")
	gb.AddEdgeArg(a, b, 1)
	gb.AddEdgeArg(a, b, 0)
	gb.AddEdgeArg(a, b, 1) // duplicate label
	g := gb.Build()
	if got := g.EdgeArgs(a, b); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("labels = %v", got)
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	if g.EdgeArgs(b, a) != nil {
		t.Error("reverse edge has labels")
	}
}

func TestPlainAddEdgeIsUnlabeled(t *testing.T) {
	gb := new(Builder)
	a := addEv(gb, KindCall, "a()")
	b := addEv(gb, KindCall, "b()")
	gb.AddEdge(a, b)
	if gb.Build().EdgeArgs(a, b) != nil {
		t.Error("plain edge must be unlabeled")
	}
}

func TestUnionPreservesLabels(t *testing.T) {
	b1 := new(Builder)
	a := addEv(b1, KindCall, "a()")
	b := addEv(b1, KindCall, "b()")
	b1.AddEdgeArg(a, b, 2)
	g1 := b1.Build()

	b2 := new(Builder)
	c := addEv(b2, KindCall, "c()")
	d := addEv(b2, KindCall, "d()")
	b2.AddEdgeArg(c, d, ArgReceiver)
	g2 := b2.Build()

	u := Union(g1, g2)
	if got := u.EdgeArgs(0, 1); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("first graph labels = %v", got)
	}
	if got := u.EdgeArgs(2, 3); !reflect.DeepEqual(got, []int{ArgReceiver}) {
		t.Errorf("second graph labels = %v", got)
	}
}

func TestAddEdgeArgRejectsBadEndpoints(t *testing.T) {
	b := new(Builder)
	a := addEv(b, KindCall, "a()")
	b.AddEdgeArg(a, a, 0)  // self loop
	b.AddEdgeArg(a, 99, 0) // out of range
	b.AddEdgeArg(-1, a, 0) // negative
	if g := b.Build(); g.NumEdges() != 0 {
		t.Errorf("edges = %d, want 0", g.NumEdges())
	}
}
