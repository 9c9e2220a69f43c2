package taint

import (
	"bytes"
	"testing"

	"seldon/internal/dataflow"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

const wrongParamApp = `from flask import request
import webdb

def lookup():
    q = request.args.get('q')
    webdb.runquery('-safe-', timeout=q)

def search():
    q = request.args.get('q')
    webdb.runquery(q)
`

func argSpec(restrict bool) *spec.Spec {
	s := spec.New()
	s.Add(propgraph.Source, "flask.request.args.get()")
	s.Add(propgraph.Sink, "webdb.runquery()")
	if restrict {
		s.RestrictSinkArgs("webdb.runquery()", 0)
	}
	return s
}

func TestArgSensitiveSinkSuppressesWrongParameterFlow(t *testing.T) {
	g, err := dataflow.AnalyzeSource("app.py", wrongParamApp)
	if err != nil {
		t.Fatal(err)
	}
	// Unrestricted: both handlers are reported.
	if got := len(Analyze(g, argSpec(false))); got != 2 {
		t.Fatalf("unrestricted reports = %d, want 2", got)
	}
	// Restricted to position 0: only the dangerous flow in search().
	reports := Analyze(g, argSpec(true))
	if len(reports) != 1 {
		t.Fatalf("restricted reports = %d, want 1: %v", len(reports), reports)
	}
	if reports[0].SourcePos.Line != 9 {
		t.Errorf("report at line %d, want the search() handler", reports[0].SourcePos.Line)
	}
}

func TestReceiverFlowRespectsRestriction(t *testing.T) {
	src := `from flask import request

def f():
    q = request.args.get('q')
    q.dump('x')
`
	g, err := dataflow.AnalyzeSource("app.py", src)
	if err != nil {
		t.Fatal(err)
	}
	s := spec.New()
	s.Add(propgraph.Source, "flask.request.args.get()")
	s.Add(propgraph.Sink, "flask.request.args.get().dump()")
	// Receiver-only flow with the sink restricted to argument 0: the
	// taint enters through the receiver, so no report.
	s.RestrictSinkArgs("flask.request.args.get().dump()", 0)
	if got := len(Analyze(g, s)); got != 0 {
		t.Errorf("receiver flow reported despite @0 restriction: %d reports", got)
	}
	// Restricting to the receiver position reports it.
	s2 := spec.New()
	s2.Add(propgraph.Source, "flask.request.args.get()")
	s2.Add(propgraph.Sink, "flask.request.args.get().dump()")
	s2.RestrictSinkArgs("flask.request.args.get().dump()", propgraph.ArgReceiver)
	if got := len(Analyze(g, s2)); got != 1 {
		t.Errorf("receiver-restricted sink reports = %d, want 1", got)
	}
}

func TestUnlabeledEdgeStaysSound(t *testing.T) {
	// Flow through a container loses the precise argument position; the
	// analyzer must still report (sound over-approximation).
	src := `from flask import request
import webdb

def f():
    q = request.args.get('q')
    items = [q]
    for it in items:
        webdb.runquery(it, timeout=3)
`
	g, err := dataflow.AnalyzeSource("app.py", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Analyze(g, argSpec(true))); got != 1 {
		t.Errorf("reports = %d, want 1", got)
	}
}

func TestSpecArgSyntaxRoundTrip(t *testing.T) {
	text := "i: webdb.runquery() @0,2\ni: os.system()\n"
	s, err := spec.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SinkArgsOf("webdb.runquery()"); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("args = %v", got)
	}
	if s.SinkArgsOf("os.system()") != nil {
		t.Error("unrestricted sink has args")
	}
	var store bytes.Buffer
	if err := specio.Encode(&store, s, specio.Meta{}); err != nil {
		t.Fatal(err)
	}
	s2, _, err := specio.Decode(&store)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got := s2.SinkArgsOf("webdb.runquery()"); len(got) != 2 || !specio.Equal(s2, s) {
		t.Errorf("round-trip args = %v", got)
	}
}

func TestSpecArgSyntaxErrors(t *testing.T) {
	if _, err := spec.Parse("i: f() @x\n"); err == nil {
		t.Error("bad position accepted")
	}
}
