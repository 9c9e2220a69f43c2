package dataflow

import (
	"strings"
	"testing"
	"testing/quick"

	"seldon/internal/propgraph"
)

// analyze builds the propagation graph for src, failing the test on parse
// errors.
func analyze(t *testing.T, src string) *propgraph.Graph {
	t.Helper()
	g, err := AnalyzeSource("test.py", src)
	if err != nil {
		t.Fatalf("AnalyzeSource: %v", err)
	}
	return g
}

// findEvent returns the first event having rep among its representations,
// or -1.
func findEvent(g *propgraph.Graph, rep string) int {
	for id := range g.Events {
		for _, r := range g.Reps(id) {
			if r == rep {
				return id
			}
		}
	}
	return -1
}

// flowsTo reports whether information can flow from any event with rep a
// to any event with rep b (the same API may occur at several locations).
func flowsTo(t *testing.T, g *propgraph.Graph, a, b string) bool {
	t.Helper()
	var as, bs []int
	for id := range g.Events {
		for _, r := range g.Reps(id) {
			if r == a {
				as = append(as, id)
			}
			if r == b {
				bs = append(bs, id)
			}
		}
	}
	if len(as) == 0 {
		t.Fatalf("no event with rep %q", a)
	}
	if len(bs) == 0 {
		t.Fatalf("no event with rep %q", b)
	}
	targets := make(map[int]bool, len(bs))
	for _, id := range bs {
		targets[id] = true
	}
	for _, src := range as {
		for _, id := range g.ForwardReachable(src) {
			if targets[id] {
				return true
			}
		}
	}
	return false
}

const figure2 = `from yak.web import app
from flask import request
from werkzeug import secure_filename
import os

blog_dir = app.config['PATH']

@app.route('/media/', methods=['POST'])
def media():
    filename = request.files['f'].filename
    filename = secure_filename(filename)
    path = os.path.join(blog_dir, filename)
    if not os.path.exists(path):
        request.files['f'].save(path)
`

func TestFigure2Events(t *testing.T) {
	g := analyze(t, figure2)
	for _, rep := range []string{
		"flask.request.files['f']",
		"flask.request.files['f'].filename",
		"werkzeug.secure_filename()",
		"yak.web.app.config['PATH']",
		"os.path.join()",
		"os.path.exists()",
		"flask.request.files['f'].save()",
	} {
		if findEvent(g, rep) < 0 {
			var have []string
			for id := range g.Events {
				if g.NumReps(id) > 0 {
					have = append(have, g.Rep(id, 0))
				}
			}
			t.Errorf("missing event %q; have %v", rep, have)
		}
	}
	// No event for pure module paths like os.path or request.files.
	if findEvent(g, "os.path") >= 0 {
		t.Error("os.path should not be an event")
	}
	if findEvent(g, "flask.request.files") >= 0 {
		t.Error("request.files should not be an event")
	}
}

func TestFigure2Flows(t *testing.T) {
	g := analyze(t, figure2)
	cases := []struct {
		src, dst string
		want     bool
	}{
		{"flask.request.files['f']", "flask.request.files['f'].filename", true},
		{"flask.request.files['f'].filename", "werkzeug.secure_filename()", true},
		{"werkzeug.secure_filename()", "os.path.join()", true},
		{"os.path.join()", "os.path.exists()", true},
		{"os.path.join()", "flask.request.files['f'].save()", true},
		{"yak.web.app.config['PATH']", "os.path.join()", true},
		// The sanitized flow reaches the sink only through the sanitizer.
		{"flask.request.files['f'].filename", "flask.request.files['f'].save()", true},
		// No backwards flow.
		{"os.path.join()", "werkzeug.secure_filename()", false},
		{"flask.request.files['f'].save()", "flask.request.files['f']", false},
	}
	for _, c := range cases {
		if got := flowsTo(t, g, c.src, c.dst); got != c.want {
			t.Errorf("flow %q -> %q = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestEventKindsAndRoles(t *testing.T) {
	g := analyze(t, figure2)
	read := g.Events[findEvent(g, "flask.request.files['f'].filename")]
	if read.Kind != propgraph.KindRead || read.Roles != propgraph.SourceOnly {
		t.Errorf("read event: kind=%v roles=%b", read.Kind, read.Roles)
	}
	call := g.Events[findEvent(g, "werkzeug.secure_filename()")]
	if call.Kind != propgraph.KindCall || call.Roles != propgraph.AllRoles {
		t.Errorf("call event: kind=%v roles=%b", call.Kind, call.Roles)
	}
}

func TestBackoffRepsForImportedChain(t *testing.T) {
	g := analyze(t, "from flask import request\nx = request.form.get('q')\n")
	ev := findEvent(g, "flask.request.form.get()")
	if ev < 0 {
		t.Fatal("missing call event")
	}
	want := []string{"flask.request.form.get()", "request.form.get()", "form.get()"}
	if g.NumReps(ev) != len(want) {
		t.Fatalf("reps = %v, want %v", g.Reps(ev), want)
	}
	for i := range want {
		if g.Rep(ev, i) != want[i] {
			t.Errorf("rep[%d] = %q, want %q", i, g.Rep(ev, i), want[i])
		}
	}
}

func TestParamEventsCreated(t *testing.T) {
	g := analyze(t, "def media(f):\n    return f.save()\n")
	prm := findEvent(g, "media(param f)")
	if prm < 0 {
		t.Fatal("missing param event")
	}
	if e := g.Events[prm]; e.Kind != propgraph.KindParam || !e.Roles.Has(propgraph.Source) {
		t.Errorf("param event = %+v", e)
	}
	// Method call rooted at the parameter carries both representations.
	save := findEvent(g, "media(param f).save()")
	if save < 0 {
		t.Fatal("missing save call")
	}
	found := false
	for _, r := range g.Reps(save) {
		if r == "f.save()" {
			found = true
		}
	}
	if !found {
		t.Errorf("save reps = %v, want to include f.save()", g.Reps(save))
	}
	if !flowsTo(t, g, "media(param f)", "media(param f).save()") {
		t.Error("param must flow into method call on it")
	}
}

func TestSelfMethodReps(t *testing.T) {
	src := `from base_driver import ThreadDriver

class ESCPOSDriver(ThreadDriver):
    def status(self, eprint):
        self.receipt('<div>' + eprint + '</div>')
`
	g := analyze(t, src)
	ev := findEvent(g, "ESCPOSDriver::status(param self).receipt()")
	if ev < 0 {
		t.Fatal("missing receipt call event")
	}
	want := []string{
		"ESCPOSDriver::status(param self).receipt()",
		"base_driver.ThreadDriver::status(param self).receipt()",
		"status(param self).receipt()",
		"self.receipt()",
	}
	if g.NumReps(ev) != len(want) {
		t.Fatalf("reps = %v", g.Reps(ev))
	}
	for i := range want {
		if g.Rep(ev, i) != want[i] {
			t.Errorf("rep[%d] = %q, want %q", i, g.Rep(ev, i), want[i])
		}
	}
	// No source-candidate event for the receiver itself.
	if findEvent(g, "ESCPOSDriver::status(param self)") >= 0 {
		t.Error("self must not get a param event")
	}
	// But eprint does.
	if findEvent(g, "ESCPOSDriver::status(param eprint)") < 0 {
		t.Error("eprint param event missing")
	}
	// eprint flows into the receipt call through the string concatenation.
	if !flowsTo(t, g, "ESCPOSDriver::status(param eprint)", "ESCPOSDriver::status(param self).receipt()") {
		t.Error("eprint must flow into receipt()")
	}
}

func TestLocalFunctionLinking(t *testing.T) {
	src := `from flask import request

def sanitize(value):
    return scrub(value)

def handler():
    data = request.args.get('q')
    clean = sanitize(data)
    render(clean)
`
	g := analyze(t, src)
	// No call event for sanitize() itself: it is linked, not opaque.
	if findEvent(g, "sanitize()") >= 0 {
		t.Error("local call must not create an event")
	}
	// Flow goes through the parameter event and the callee body.
	if !flowsTo(t, g, "flask.request.args.get()", "sanitize(param value)") {
		t.Error("argument must flow into param event")
	}
	if !flowsTo(t, g, "flask.request.args.get()", "scrub()") {
		t.Error("argument must flow through callee body")
	}
	// The callee's return value must flow to the caller's use.
	if !flowsTo(t, g, "scrub()", "render()") {
		t.Error("return value must flow back to call site")
	}
}

func TestAliasingThroughAssignment(t *testing.T) {
	src := `from flask import request

def f():
    a = request.args.get('x')
    b = a
    sink(b)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "flask.request.args.get()", "sink()") {
		t.Error("aliased value must flow to sink")
	}
}

func TestFieldSensitivity(t *testing.T) {
	src := `from flask import request

def f(obj):
    obj.data = request.args.get('x')
    sink(obj.data)
    other(obj.clean)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "flask.request.args.get()", "sink()") {
		t.Error("field write/read must propagate")
	}
}

func TestContainerFlow(t *testing.T) {
	src := `from flask import request

def f():
    items = [request.args.get('x'), 'safe']
    sink(items)
    for it in items:
        use(it)
    d = {}
    d['k'] = request.args.get('y')
    store(d)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "flask.request.args.get()", "sink()") {
		t.Error("list element must flow into call taking the list")
	}
	if !flowsTo(t, g, "flask.request.args.get()", "use()") {
		t.Error("iteration must propagate element taint")
	}
	if !flowsTo(t, g, "flask.request.args.get()", "store()") {
		t.Error("dict store must taint the dict")
	}
}

func TestBranchMerging(t *testing.T) {
	src := `from flask import request

def f(flag):
    if flag:
        x = request.args.get('a')
    else:
        x = 'constant'
    sink(x)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "flask.request.args.get()", "sink()") {
		t.Error("taint from one branch must survive the join")
	}
}

func TestChainedCallReps(t *testing.T) {
	g := analyze(t, "import MySQLdb\ncur = MySQLdb.connect().cursor()\ncur.execute(q)\n")
	if findEvent(g, "MySQLdb.connect().cursor()") < 0 {
		t.Error("chained call representation missing")
	}
	if findEvent(g, "MySQLdb.connect().cursor().execute()") < 0 {
		t.Error("execute after chained calls missing")
	}
}

func TestLocalsBuiltin(t *testing.T) {
	src := `from flask import request

def f():
    q = request.args.get('x')
    ctx = locals()
    render(ctx)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "flask.request.args.get()", "locals()") {
		t.Error("locals() must receive flow from local variables")
	}
	if !flowsTo(t, g, "flask.request.args.get()", "render()") {
		t.Error("locals() result must carry taint onward")
	}
}

func TestTupleUnpackingFlow(t *testing.T) {
	src := `from flask import request

def f():
    a, b = request.args.get('x'), 'safe'
    sink(a)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "flask.request.args.get()", "sink()") {
		t.Error("tuple unpacking must propagate")
	}
}

func TestWithStatementFlow(t *testing.T) {
	src := `def f(path):
    with open(path) as fh:
        data = fh.read()
        process(data)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "open()", "process()") {
		t.Error("with-statement binding must propagate")
	}
	if !flowsTo(t, g, "f(param path)", "open()") {
		t.Error("param must flow into open()")
	}
}

func TestLoopSingleIterationNoCycles(t *testing.T) {
	src := `def f(xs):
    acc = start()
    while cond():
        acc = step(acc)
    finish(acc)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "start()", "step()") {
		t.Error("loop body must see pre-loop value")
	}
	if !flowsTo(t, g, "step()", "finish()") {
		t.Error("post-loop must see loop value")
	}
	if !flowsTo(t, g, "start()", "finish()") {
		t.Error("post-loop must see pre-loop value (zero iterations)")
	}
}

func TestImportAliasResolution(t *testing.T) {
	g := analyze(t, "import os.path as osp\nosp.join(a, b)\nimport numpy as np\nnp.array(x)\n")
	if findEvent(g, "os.path.join()") < 0 {
		t.Error("aliased import not expanded")
	}
	if findEvent(g, "numpy.array()") < 0 {
		t.Error("aliased module not expanded")
	}
}

func TestImportShadowedByAssignment(t *testing.T) {
	g := analyze(t, "from flask import request\ndef f():\n    request = make()\n    request.go()\n")
	// After reassignment, request is a plain local holding make()'s
	// result: the call event must chain through the defining expression
	// (Table 10's open().write() pattern), not through flask.
	if findEvent(g, "flask.request.go()") >= 0 {
		t.Error("shadowed import still treated as import")
	}
	if findEvent(g, "make().go()") < 0 {
		t.Error("chained call event missing")
	}
}

func TestDecoratorsProduceEvents(t *testing.T) {
	g := analyze(t, "from yak.web import app\n@app.route('/x')\ndef f():\n    pass\n")
	if findEvent(g, "yak.web.app.route()") < 0 {
		t.Error("decorator call event missing")
	}
}

func TestLambdaBodyAnalyzed(t *testing.T) {
	g := analyze(t, "from flask import request\ncb = lambda: sink(request.args.get('q'))\n")
	if !flowsTo(t, g, "flask.request.args.get()", "sink()") {
		t.Error("lambda body flows missing")
	}
}

func TestComprehensionFlow(t *testing.T) {
	src := `from flask import request

def f():
    rows = [clean(x) for x in request.args.get('q')]
    sink(rows)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "flask.request.args.get()", "clean()") {
		t.Error("comprehension iterable must flow into element expr")
	}
	if !flowsTo(t, g, "clean()", "sink()") {
		t.Error("comprehension result must carry element taint")
	}
}

func TestTryExceptFlow(t *testing.T) {
	src := `def f():
    x = fetch()
    try:
        y = parse(x)
    except ValueError as e:
        y = fallback(e)
    sink(y)
`
	g := analyze(t, src)
	if !flowsTo(t, g, "parse()", "sink()") {
		t.Error("try-body value must reach join")
	}
	if !flowsTo(t, g, "fallback()", "sink()") {
		t.Error("handler value must reach join")
	}
}

func TestGraphIsAcyclic(t *testing.T) {
	g := analyze(t, figure2)
	// Kahn's algorithm must consume every vertex.
	indeg := make([]int, len(g.Events))
	for id := range g.Events {
		for _, s := range g.Succs(id) {
			indeg[s]++
		}
	}
	var queue []int
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		seen++
		for _, s := range g.Succs(id) {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != len(g.Events) {
		t.Errorf("propagation graph has a cycle: %d of %d events sorted", seen, len(g.Events))
	}
}

// Property: the analyzer must never panic and always produce a graph whose
// edges reference valid events, for arbitrary fragment soup.
func TestAnalyzerRobustness(t *testing.T) {
	frags := []string{
		"def f(x):\n", "    y = g(x)\n", "    return y\n", "x = d['k']\n",
		"class C(B):\n", "    def m(self):\n", "        self.n()\n",
		"import a.b\n", "from c import d\n", "for i in xs:\n    use(i)\n",
		"with open(p) as f:\n    f.read()\n", "try:\n    t()\nexcept:\n    pass\n",
		"l = [a for a in b]\n", "x += y\n", "del x\n", "lambda q: q\n",
	}
	f := func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(frags[int(p)%len(frags)])
		}
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on:\n%s\n%v", b.String(), r)
			}
		}()
		g, _ := AnalyzeSource("fuzz.py", b.String())
		for id := range g.Events {
			for _, s := range g.Succs(id) {
				if s < 0 || s >= len(g.Events) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestStatsOnFigure2(t *testing.T) {
	g := analyze(t, figure2)
	st := g.ComputeStats()
	if st.Candidates == 0 || st.AvgBackoff < 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Events < 7 {
		t.Errorf("too few events: %+v", st)
	}
}

func TestLocalClassInstanceMethodLinking(t *testing.T) {
	src := `from flask import request

class Handler:
    def fetch(self):
        return request.args.get('q')

    def render(self, data):
        emit(data)

def serve():
    h = Handler()
    value = h.fetch()
    h.render(value)
`
	g := analyze(t, src)
	// Method calls on local instances are linked, not opaque events.
	if findEvent(g, "h.fetch()") >= 0 || findEvent(g, "fetch()") >= 0 {
		t.Error("linked method call created an event")
	}
	if !flowsTo(t, g, "flask.request.args.get()", "emit()") {
		t.Error("flow through instance methods missing")
	}
	// The argument flows into the method's parameter event.
	if !flowsTo(t, g, "flask.request.args.get()", "Handler::render(param data)") {
		t.Error("argument must reach the method's param event")
	}
}

func TestSelfStateFlowsAcrossMethods(t *testing.T) {
	src := `from flask import request

class Session:
    def load(self):
        self.token = request.cookies.get('t')

    def send(self):
        transmit(self.token)

def run():
    s = Session()
    s.load()
    s.send()
`
	g := analyze(t, src)
	if !flowsTo(t, g, "flask.request.cookies.get()", "transmit()") {
		t.Error("instance state must flow between methods")
	}
}

func TestConstructorArgumentsFlowIntoInit(t *testing.T) {
	src := `from flask import request

class Job:
    def __init__(self, payload):
        self.payload = payload

    def run(self):
        execute(self.payload)

def submit():
    j = Job(request.form.get('cmd'))
    j.run()
`
	g := analyze(t, src)
	if !flowsTo(t, g, "flask.request.form.get()", "Job::__init__(param payload)") {
		t.Error("constructor argument must reach __init__ param")
	}
	if !flowsTo(t, g, "flask.request.form.get()", "execute()") {
		t.Error("constructor argument must flow to method body sink")
	}
}
