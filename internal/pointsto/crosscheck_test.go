package pointsto

import (
	"testing"

	"seldon/internal/dataflow"
	"seldon/internal/propgraph"
)

// TestAgreesWithDataflowOnAliasing cross-checks the two points-to
// implementations in the repository: this package's classical Andersen
// solver and the field-sensitive object model embedded in the dataflow
// analyzer. Both analyze the same program shape; where the Andersen
// solver says two names alias (share an allocation site), the dataflow
// analyzer must propagate taint between them, and where it proves them
// disjoint, the analyzer must not.
func TestAgreesWithDataflowOnAliasing(t *testing.T) {
	// Python shape:
	//   box = make_box()      (allocation oBox)
	//   alias = box
	//   other = make_other()  (allocation oOther)
	//   box.data = taint()
	//   use(alias.data)       -- alias.data aliases box.data: tainted
	//   use2(other.data)      -- disjoint: clean
	s := NewSolver()
	oBox := s.NewObject("box-alloc")
	oOther := s.NewObject("other-alloc")
	oTaint := s.NewObject("taint-alloc")
	box := s.NewVar("box")
	alias := s.NewVar("alias")
	other := s.NewVar("other")
	taintV := s.NewVar("t")
	readAlias := s.NewVar("alias.data")
	readOther := s.NewVar("other.data")
	s.AddAlloc(box, oBox)
	s.AddCopy(alias, box)
	s.AddAlloc(other, oOther)
	s.AddAlloc(taintV, oTaint)
	s.AddStore(box, "data", taintV)
	s.AddLoad(readAlias, alias, "data")
	s.AddLoad(readOther, other, "data")

	if !s.Alias(readAlias, taintV) {
		t.Fatal("andersen: alias.data must alias the tainted value")
	}
	if s.Alias(readOther, taintV) {
		t.Fatal("andersen: other.data must not alias the tainted value")
	}

	src := `def f():
    box = make_box()
    alias = box
    other = make_other()
    box.data = taint()
    use(alias.data)
    use2(other.data)
`
	g, err := dataflow.AnalyzeSource("t.py", src)
	if err != nil {
		t.Fatal(err)
	}
	if !dataflowFlows(g, "taint()", "use()") {
		t.Error("dataflow: taint must reach use() through the alias")
	}
	if dataflowFlows(g, "taint()", "use2()") {
		t.Error("dataflow: taint must not reach use2()")
	}
}

func dataflowFlows(g *propgraph.Graph, from, to string) bool {
	var srcs []int
	targets := map[int]bool{}
	for id := range g.Events {
		for _, r := range g.Reps(id) {
			if r == from {
				srcs = append(srcs, id)
			}
			if r == to {
				targets[id] = true
			}
		}
	}
	for _, s := range srcs {
		for _, id := range g.ForwardReachable(s) {
			if targets[id] {
				return true
			}
		}
	}
	return false
}
