package eval

import (
	"testing"

	"seldon/internal/corpus"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/taint"
)

func TestSamplePrecision(t *testing.T) {
	truth := corpus.NewTruth()
	entries := []spec.Entry{
		{Rep: "htmlguard.scrub()", Role: propgraph.Sanitizer, Score: 0.9},    // correct
		{Rep: "textutil.titlecase()", Role: propgraph.Sanitizer, Score: 0.4}, // wrong
		{Rep: "webapi.get_param()", Role: propgraph.Source, Score: 0.8},      // correct
		{Rep: "webdb.runquery()", Role: propgraph.Sink, Score: 0.7},          // correct
		{Rep: "metrics.observe()", Role: propgraph.Sink, Score: 0.3},         // wrong
	}
	rep := SamplePrecision(entries, truth, 50, 1)
	san := rep.PerRole[propgraph.Sanitizer]
	if san.Sampled != 2 || san.Correct != 1 {
		t.Errorf("sanitizer precision = %+v", san)
	}
	overall := rep.Overall()
	if overall.Sampled != 5 || overall.Correct != 3 {
		t.Errorf("overall = %+v", overall)
	}
	if got := overall.Precision(); got != 0.6 {
		t.Errorf("precision = %v, want 0.6", got)
	}
}

func TestSamplePrecisionRespectsSampleSize(t *testing.T) {
	truth := corpus.NewTruth()
	var entries []spec.Entry
	for i := 0; i < 100; i++ {
		entries = append(entries, spec.Entry{Rep: "webapi.get_param()", Role: propgraph.Source, Score: 0.5})
	}
	rep := SamplePrecision(entries, truth, 50, 1)
	if got := rep.PerRole[propgraph.Source]; got.Sampled != 50 || got.Predicted != 100 {
		t.Errorf("source = %+v", got)
	}
}

func classifyOne(t *testing.T, r taint.Report, flows []corpus.Flow) Category {
	t.Helper()
	return ClassifyReport(&r, flows, corpus.NewTruth())
}

func TestClassifyReportCategories(t *testing.T) {
	flows := []corpus.Flow{
		{File: "a.py", SourceRep: "flask.request.args.get()", SinkRep: "os.system()",
			Exploitable: true},
		{File: "b.py", SourceRep: "flask.request.args.get()", SinkRep: "os.system()",
			Sanitized: true, SanitizerRep: "shellguard.quote_arg()"},
		{File: "c.py", SourceRep: "flask.request.args.get()", SinkRep: "os.system()"},
		{File: "d.py", SourceRep: "flask.request.args.get()", SinkRep: "webdb.runquery()",
			WrongParam: true},
	}
	base := taint.Report{SourceRep: "flask.request.args.get()", SinkRep: "os.system()"}

	r := base
	r.File = "a.py"
	if got := classifyOne(t, r, flows); got != TrueVulnerability {
		t.Errorf("a.py = %q", got)
	}
	r.File = "b.py"
	if got := classifyOne(t, r, flows); got != MissingSanitizer {
		t.Errorf("b.py = %q", got)
	}
	r.File = "c.py"
	if got := classifyOne(t, r, flows); got != VulnFlowNoBug {
		t.Errorf("c.py = %q", got)
	}
	wp := taint.Report{File: "d.py", SourceRep: "flask.request.args.get()", SinkRep: "webdb.runquery()"}
	if got := classifyOne(t, wp, flows); got != WrongParameter {
		t.Errorf("d.py = %q", got)
	}

	// Unplanned reports judged by the oracle.
	bad := taint.Report{File: "x.py", SourceRep: "clock.now_iso()", SinkRep: "os.system()"}
	if got := classifyOne(t, bad, flows); got != IncorrectSource {
		t.Errorf("incorrect source = %q", got)
	}
	bad2 := taint.Report{File: "x.py", SourceRep: "flask.request.args.get()", SinkRep: "clock.now_iso()"}
	if got := classifyOne(t, bad2, flows); got != IncorrectSink {
		t.Errorf("incorrect sink = %q", got)
	}
	bad3 := taint.Report{File: "x.py", SourceRep: "clock.now_iso()", SinkRep: "metrics.observe()"}
	if got := classifyOne(t, bad3, flows); got != IncorrectBoth {
		t.Errorf("incorrect both = %q", got)
	}
}

func TestMeasureRecall(t *testing.T) {
	learnable := map[string]propgraph.Role{
		"webapi.get_param()": propgraph.Source,
		"htmlguard.scrub()":  propgraph.Sanitizer,
		"webdb.runquery()":   propgraph.Sink,
	}
	entries := []spec.Entry{
		{Rep: "webapi.get_param()", Role: propgraph.Source},
		{Rep: "htmlguard.scrub()", Role: propgraph.Sink}, // wrong role: no credit
	}
	r := MeasureRecall(entries, learnable)
	if r.Found != 1 || r.Total != 3 {
		t.Errorf("recall = %+v", r)
	}
	if len(r.Missing) != 2 {
		t.Errorf("missing = %v", r.Missing)
	}
	if r.Fraction() < 0.33 || r.Fraction() > 0.34 {
		t.Errorf("fraction = %v", r.Fraction())
	}
	if empty := MeasureRecall(nil, nil); empty.Fraction() != 1 {
		t.Error("empty catalog must have recall 1")
	}
}
