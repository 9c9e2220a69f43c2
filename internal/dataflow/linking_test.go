package dataflow

import (
	"strings"
	"testing"

	"seldon/internal/propgraph"
	"seldon/internal/pyparse"
)

func TestKeywordArgumentLinking(t *testing.T) {
	src := `from flask import request

def store(path, payload=None):
    persist(payload)

def handler():
    data = request.form.get('d')
    store('/tmp/x', payload=data)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "flask.request.form.get()", "store(param payload)") {
		t.Error("keyword argument must reach the named parameter event")
	}
	if !flowsTo(t, g, "flask.request.form.get()", "persist()") {
		t.Error("keyword argument must flow through the callee body")
	}
	// The positional argument must NOT leak into payload's param event.
	if flowsTo(t, g, "store(param path)", "store(param payload)") {
		t.Error("positional and keyword parameters conflated")
	}
}

func TestNestedFunctionLinking(t *testing.T) {
	src := `from flask import request

def outer():
    def inner(v):
        emit(v)
    q = request.args.get('q')
    inner(q)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "flask.request.args.get()", "emit()") {
		t.Error("nested function call must be linked")
	}
}

func TestModuleLevelVariableFlow(t *testing.T) {
	src := `from flask import request

SETTING = load_setting()

def handler():
    use(SETTING)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "load_setting()", "use()") {
		t.Error("module-level variable must flow into function bodies")
	}
}

func TestRecursiveFunctionDoesNotHang(t *testing.T) {
	src := `def walk(node):
    if node:
        walk(node)
    return finish(node)

def run():
    walk(start())
`
	g := analyze(t, src)
	if !flowsTo(t, g, "start()", "walk(param node)") {
		t.Error("recursive call argument lost")
	}
	if !flowsTo(t, g, "walk(param node)", "finish()") {
		t.Error("recursive body flow lost")
	}
}

func TestMutuallyRecursiveFunctions(t *testing.T) {
	src := `def ping(x):
    return pong(x)

def pong(y):
    return ping(y)

def run():
    ping(seed())
`
	g := analyze(t, src)
	// The recursion guard cuts the cycle; the first hop must still link.
	if !flowsTo(t, g, "seed()", "ping(param x)") {
		t.Error("first hop of mutual recursion lost")
	}
}

func TestReturnThroughMultipleHops(t *testing.T) {
	src := `def a():
    return fetch()

def b():
    return a()

def run():
    deliver(b())
`
	g := analyze(t, src)
	if !flowsTo(t, g, "fetch()", "deliver()") {
		t.Error("return value must flow through two linked calls")
	}
}

func TestDefaultValueEvaluatedAtDefinition(t *testing.T) {
	g := analyze(t, "def f(x=compute_default()):\n    pass\n")
	if findEvent(g, "compute_default()") == nil {
		t.Error("default expression must produce an event")
	}
}

func TestStarArgsDoNotBreakLinking(t *testing.T) {
	src := `def f(a, b):
    sink(b)

def run():
    args = [1, taint()]
    f(*args)
    f(1, taint2())
`
	g := analyze(t, src)
	// The positional call after the star call must still link correctly.
	if !flowsTo(t, g, "taint2()", "sink()") {
		t.Error("positional linking broken by star-call neighbor")
	}
}

func TestFStringInterpolationFlow(t *testing.T) {
	src := `from flask import request
import MySQLdb

def f():
    term = request.args.get('q')
    q = f"SELECT * FROM t WHERE k = {term}"
    cur = MySQLdb.connect().cursor()
    cur.execute(q)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "flask.request.args.get()", "MySQLdb.connect().cursor().execute()") {
		t.Error("f-string interpolation must propagate taint")
	}
}

func TestFStringNestedCallFlow(t *testing.T) {
	src := `from flask import request

def f():
    q = request.args.get('q')
    msg = f"result: {normalize(q)}"
    emit(msg)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "flask.request.args.get()", "normalize()") {
		t.Error("call inside f-string must receive flow")
	}
	if !flowsTo(t, g, "normalize()", "emit()") {
		t.Error("f-string value must carry interpolation results")
	}
}

func TestMaxPathSegmentsCapsReps(t *testing.T) {
	// A chain deeper than the cap keeps flowing but stops producing
	// representations.
	src := "import a\nx = a.b.c.d.e.f.g.h.i.j.k.m()\n"
	g, err := AnalyzeSource("t.py", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Events {
		for _, r := range e.Reps() {
			if len(r) > 0 && strings.Count(r, ".") > 10 {
				t.Errorf("over-long rep survived: %q", r)
			}
		}
	}
	// With a small cap, the deep call has no reps at all but still exists.
	mod, _ := pyparse.Parse("t.py", src)
	g2 := AnalyzeModule(mod, Options{maxPathSegments: 3})
	deepCall := 0
	for _, e := range g2.Events {
		if e.Kind == propgraph.KindCall && e.NumReps() == 0 {
			deepCall++
		}
	}
	if deepCall == 0 {
		t.Error("capped analyzer should keep rep-less deep events")
	}
}

func TestFieldDepthBoundsEventCollection(t *testing.T) {
	// Deeply nested containers still terminate and propagate at least the
	// shallow levels.
	src := `from flask import request

def f():
    q = request.args.get('x')
    nested = [[[[[q]]]]]
    sink(nested)
`
	mod, _ := pyparse.Parse("t.py", src)
	g := AnalyzeModule(mod, Options{fieldDepth: 2})
	// With depth 2 the taint is buried 5 levels deep: no edge expected,
	// but no panic or hang either.
	_ = g
	g2 := AnalyzeModule(mod, Options{fieldDepth: 6})
	if !flowsTo(t, g2, "flask.request.args.get()", "sink()") {
		t.Error("depth 6 must reach the nested taint")
	}
}
