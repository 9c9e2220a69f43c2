package taint

import (
	"strings"
	"testing"

	"seldon/internal/dataflow"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

func TestTraceRendersWitnessPath(t *testing.T) {
	src := `from flask import request
import os

def f():
    q = request.args.get('cmd')
    line = prefix(q)
    os.system(line)
`
	g, err := dataflow.AnalyzeSource("app.py", src)
	if err != nil {
		t.Fatal(err)
	}
	s := spec.New()
	s.Add(propgraph.Source, "flask.request.args.get()")
	s.Add(propgraph.Sink, "os.system()")
	reports := Analyze(g, s)
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	trace := reports[0].Trace(g)
	for _, want := range []string{"source", "flask.request.args.get()", "prefix()", "sink", "os.system()", "app.py:"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q:\n%s", want, trace)
		}
	}
	// Source first, sink last.
	lines := strings.Split(strings.TrimSpace(trace), "\n")
	if !strings.HasPrefix(lines[0], "source") || !strings.HasPrefix(lines[len(lines)-1], "sink") {
		t.Errorf("trace ordering wrong:\n%s", trace)
	}
}

func TestDedupe(t *testing.T) {
	reports := []Report{
		{File: "a.py", SourceRep: "s()", SinkRep: "k()"},
		{File: "b.py", SourceRep: "s()", SinkRep: "k()"},  // duplicate pair
		{File: "a.py", SourceRep: "s()", SinkRep: "k2()"}, // distinct sink
	}
	got := Dedupe(reports)
	if len(got) != 2 {
		t.Fatalf("deduped = %d, want 2", len(got))
	}
	if got[0].File != "a.py" {
		t.Error("dedupe must keep the first witness")
	}
}
