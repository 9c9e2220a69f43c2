package propgraph

import (
	"bytes"
	"testing"

	"seldon/internal/pytoken"
)

// TestEncodeJSON pins seldon graph's JSON dump: every event with its kind,
// position, reps and candidate roles in ID order, then every edge with its
// argument labels in ascending order, and an unlabeled edge with none.
func TestEncodeJSON(t *testing.T) {
	gb := NewBuilder()
	a := gb.AddEvent(KindCall, "a.py", pytoken.Pos{Line: 3, Col: 4}, []string{"f()", "m.f()"})
	b := gb.AddEvent(KindRead, "a.py", pytoken.Pos{Line: 5}, []string{"x.y"})
	c := gb.AddEvent(KindParam, "b.py", pytoken.Pos{Line: 1}, []string{"g(param p)"})
	gb.AddEdge(a, b)
	gb.AddEdgeArg(b, c, 0)
	gb.AddEdgeArg(b, c, ArgReceiver)
	g := gb.Build()

	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{"version":1,"events":[` +
		`{"kind":0,"file":"a.py","line":3,"col":4,"reps":["f()","m.f()"],"roles":7},` +
		`{"kind":1,"file":"a.py","line":5,"reps":["x.y"],"roles":1},` +
		`{"kind":2,"file":"b.py","line":1,"reps":["g(param p)"],"roles":1}],` +
		`"edges":[{"s":0,"d":1},{"s":1,"d":2,"a":[-1,0]}]}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("Encode =\n%s\nwant\n%s", got, want)
	}
}

func TestEncodeEmptyGraph(t *testing.T) {
	var buf bytes.Buffer
	if err := NewBuilder().Build().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), `{"version":1,"events":null,"edges":null}`+"\n"; got != want {
		t.Errorf("Encode of the empty graph = %q, want %q", got, want)
	}
}
