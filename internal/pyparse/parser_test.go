package pyparse

import (
	"strings"
	"testing"
	"testing/quick"

	"seldon/internal/pyast"
	"seldon/internal/pytoken"
)

func mustParse(t *testing.T, src string) *pyast.Module {
	t.Helper()
	mod, err := Parse("test.py", src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return mod
}

// exprOf parses a one-line expression statement and returns its expression.
func exprOf(t *testing.T, src string) pyast.Expr {
	t.Helper()
	mod := mustParse(t, src+"\n")
	if len(mod.Body) != 1 {
		t.Fatalf("want 1 statement, got %d", len(mod.Body))
	}
	es, ok := mod.Body[0].(*pyast.ExprStmt)
	if !ok {
		t.Fatalf("want ExprStmt, got %T", mod.Body[0])
	}
	return es.Value
}

func TestUnparseRoundTrip(t *testing.T) {
	// For canonical inputs, parse→unparse must be the identity.
	cases := []string{
		"x",
		"x.y.z",
		"f(a, b)",
		"f(a, key=b)",
		"f(*args, **kwargs)",
		"d[k]",
		"d[1:2]",
		"d[1:2:3]",
		"x + y",
		"request.files['f'].filename",
		"request.files['f'].save(path)",
		"os.path.join(blog_dir, filename)",
		"[x, y]",
		"{1: 'a', 2: 'b'}",
		"{x, y}",
		"(a, b)",
		"not x",
		"-x",
		"x < y",
		"a in b",
		"a not in b",
		"a is not b",
		"lambda x: x",
		"[x for x in y]",
		"[x for x in y if x]",
		"{k: v for k, v in items}",
		"(x for x in y)",
		"await f(x)",
		"x if c else y",
		"a == b == c",
	}
	for _, src := range cases {
		e := exprOf(t, src)
		got := Unparse(e)
		// IfExp and chains get canonical parens; normalize expectations.
		want := src
		switch src {
		case "x if c else y":
			want = "x if c else y"
		case "(a, b)":
			want = "(a, b)"
		case "{k: v for k, v in items}":
			want = "{k: v for (k, v) in items}"
		}
		if got != want {
			t.Errorf("Unparse(parse(%q)) = %q", src, got)
		}
	}
}

func TestFunctionDef(t *testing.T) {
	src := `def media(f, size=10, *args, **kwargs):
    return f
`
	mod := mustParse(t, src)
	fn, ok := mod.Body[0].(*pyast.FunctionDef)
	if !ok {
		t.Fatalf("want FunctionDef, got %T", mod.Body[0])
	}
	if fn.Name != "media" {
		t.Errorf("name = %q", fn.Name)
	}
	if len(fn.Params) != 4 {
		t.Fatalf("params = %d, want 4", len(fn.Params))
	}
	if fn.Params[1].Default == nil {
		t.Error("size should have a default")
	}
	if !fn.Params[2].Star || fn.Params[2].Name != "args" {
		t.Errorf("param 2 = %+v, want *args", fn.Params[2])
	}
	if !fn.Params[3].DoubleStar || fn.Params[3].Name != "kwargs" {
		t.Errorf("param 3 = %+v, want **kwargs", fn.Params[3])
	}
	if len(fn.Body) != 1 {
		t.Errorf("body = %d statements", len(fn.Body))
	}
}

func TestDecoratedFunction(t *testing.T) {
	src := `@app.route('/media/', methods=['POST'])
def media():
    pass
`
	mod := mustParse(t, src)
	fn := mod.Body[0].(*pyast.FunctionDef)
	if len(fn.Decorators) != 1 {
		t.Fatalf("decorators = %d", len(fn.Decorators))
	}
	call, ok := fn.Decorators[0].(*pyast.Call)
	if !ok {
		t.Fatalf("decorator is %T", fn.Decorators[0])
	}
	if Unparse(call.Func) != "app.route" {
		t.Errorf("decorator func = %q", Unparse(call.Func))
	}
	if len(call.Keywords) != 1 || call.Keywords[0].Name != "methods" {
		t.Errorf("keywords = %+v", call.Keywords)
	}
}

func TestClassDef(t *testing.T) {
	src := `class ESCPOSDriver(ThreadDriver, metaclass=Meta):
    def status(self, eprint):
        self.receipt('<div>' + msg + '</div>')
`
	mod := mustParse(t, src)
	cls := mod.Body[0].(*pyast.ClassDef)
	if cls.Name != "ESCPOSDriver" {
		t.Errorf("name = %q", cls.Name)
	}
	if len(cls.Bases) != 1 || Unparse(cls.Bases[0]) != "ThreadDriver" {
		t.Errorf("bases = %v", cls.Bases)
	}
	if len(cls.Keywords) != 1 || cls.Keywords[0].Name != "metaclass" {
		t.Errorf("keywords = %+v", cls.Keywords)
	}
	method := cls.Body[0].(*pyast.FunctionDef)
	if method.Name != "status" || len(method.Params) != 2 {
		t.Errorf("method = %q params %d", method.Name, len(method.Params))
	}
}

func TestPaperFigure2Snippet(t *testing.T) {
	src := `from yak.web import app
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
	mod := mustParse(t, src)
	if len(mod.Body) != 6 {
		t.Fatalf("top-level statements = %d, want 6", len(mod.Body))
	}
	imp := mod.Body[0].(*pyast.ImportFrom)
	if imp.Module != "yak.web" || imp.Names[0].Name != "app" {
		t.Errorf("import 0 = %+v", imp)
	}
	fn := mod.Body[5].(*pyast.FunctionDef)
	if len(fn.Body) != 4 {
		t.Fatalf("function body = %d statements", len(fn.Body))
	}
	ifStmt := fn.Body[3].(*pyast.If)
	call := ifStmt.Body[0].(*pyast.ExprStmt).Value.(*pyast.Call)
	if got := Unparse(call); got != "request.files['f'].save(path)" {
		t.Errorf("sink call = %q", got)
	}
}

func TestAssignmentForms(t *testing.T) {
	mod := mustParse(t, "a = b = f()\nx += 1\ny: int = 2\nz[0] = 3\nw.attr = 4\n(p, q) = pair\n")
	if a := mod.Body[0].(*pyast.Assign); len(a.Targets) != 2 {
		t.Errorf("chained assign targets = %d", len(a.Targets))
	}
	if _, ok := mod.Body[1].(*pyast.AugAssign); !ok {
		t.Errorf("statement 1 = %T", mod.Body[1])
	}
	ann := mod.Body[2].(*pyast.AnnAssign)
	if Unparse(ann.Annotation) != "int" || ann.Value == nil {
		t.Errorf("annassign = %+v", ann)
	}
	if tgt := mod.Body[3].(*pyast.Assign).Targets[0]; Unparse(tgt) != "z[0]" {
		t.Errorf("subscript target = %q", Unparse(tgt))
	}
	if tgt := mod.Body[4].(*pyast.Assign).Targets[0]; Unparse(tgt) != "w.attr" {
		t.Errorf("attribute target = %q", Unparse(tgt))
	}
	if tgt := mod.Body[5].(*pyast.Assign).Targets[0]; Unparse(tgt) != "(p, q)" {
		t.Errorf("tuple target = %q", Unparse(tgt))
	}
}

func TestTupleUnpackingWithoutParens(t *testing.T) {
	mod := mustParse(t, "a, b = 1, 2\n")
	assign := mod.Body[0].(*pyast.Assign)
	tgt, ok := assign.Targets[0].(*pyast.Tuple)
	if !ok || len(tgt.Elts) != 2 {
		t.Fatalf("target = %s", Unparse(assign.Targets[0]))
	}
	val, ok := assign.Value.(*pyast.Tuple)
	if !ok || len(val.Elts) != 2 {
		t.Fatalf("value = %s", Unparse(assign.Value))
	}
}

func TestControlFlow(t *testing.T) {
	src := `while x > 0:
    x -= 1
else:
    done()
for i in range(10):
    if i % 2 == 0:
        continue
    elif i == 7:
        break
    else:
        use(i)
try:
    risky()
except ValueError as e:
    handle(e)
except:
    pass
else:
    ok()
finally:
    cleanup()
with open(p) as f, lock:
    f.read()
`
	mod := mustParse(t, src)
	if len(mod.Body) != 4 {
		t.Fatalf("statements = %d, want 4", len(mod.Body))
	}
	w := mod.Body[0].(*pyast.While)
	if len(w.Else) != 1 {
		t.Errorf("while-else = %d", len(w.Else))
	}
	f := mod.Body[1].(*pyast.For)
	inner := f.Body[0].(*pyast.If)
	elif, ok := inner.Else[0].(*pyast.If)
	if !ok {
		t.Fatalf("elif not nested If: %T", inner.Else[0])
	}
	if len(elif.Else) != 1 {
		t.Errorf("else body = %d", len(elif.Else))
	}
	tr := mod.Body[2].(*pyast.Try)
	if len(tr.Handlers) != 2 || tr.Handlers[0].Name != "e" || len(tr.Else) != 1 || len(tr.Finally) != 1 {
		t.Errorf("try = %+v", tr)
	}
	wi := mod.Body[3].(*pyast.With)
	if len(wi.Items) != 2 || wi.Items[0].Vars == nil || wi.Items[1].Vars != nil {
		t.Errorf("with items = %+v", wi.Items)
	}
}

func TestImports(t *testing.T) {
	mod := mustParse(t, "import os, sys as system\nfrom . import sibling\nfrom ..pkg import a as b, c\nfrom mod import (x,\n    y)\nfrom m import *\n")
	imp := mod.Body[0].(*pyast.Import)
	if imp.Names[1].Name != "sys" || imp.Names[1].AsName != "system" {
		t.Errorf("import aliases = %+v", imp.Names[1])
	}
	rel := mod.Body[1].(*pyast.ImportFrom)
	if rel.Level != 1 || rel.Module != "" {
		t.Errorf("relative import = %+v", rel)
	}
	rel2 := mod.Body[2].(*pyast.ImportFrom)
	if rel2.Level != 2 || rel2.Module != "pkg" || rel2.Names[0].AsName != "b" {
		t.Errorf("relative import 2 = %+v", rel2)
	}
	par := mod.Body[3].(*pyast.ImportFrom)
	if len(par.Names) != 2 {
		t.Errorf("parenthesized import names = %d", len(par.Names))
	}
	star := mod.Body[4].(*pyast.ImportFrom)
	if star.Names[0].Name != "*" {
		t.Errorf("star import = %+v", star.Names)
	}
}

func TestChainedComparison(t *testing.T) {
	e := exprOf(t, "0 <= x < n")
	cmp := e.(*pyast.Compare)
	if len(cmp.Ops) != 2 || cmp.Ops[0].Kind != pytoken.LE || cmp.Ops[1].Kind != pytoken.LT {
		t.Errorf("ops = %+v", cmp.Ops)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	e := exprOf(t, "a + b * c")
	bin := e.(*pyast.BinOp)
	if bin.Op != pytoken.PLUS {
		t.Fatalf("root op = %v", bin.Op)
	}
	right := bin.Right.(*pyast.BinOp)
	if right.Op != pytoken.STAR {
		t.Errorf("right op = %v", right.Op)
	}

	e = exprOf(t, "a or b and not c")
	or := e.(*pyast.BoolOp)
	if or.Op != pytoken.KwOr {
		t.Fatalf("root = %v", or.Op)
	}
	and := or.Values[1].(*pyast.BoolOp)
	if and.Op != pytoken.KwAnd {
		t.Fatalf("second = %v", and.Op)
	}
	if _, ok := and.Values[1].(*pyast.UnaryOp); !ok {
		t.Errorf("not c = %T", and.Values[1])
	}

	e = exprOf(t, "2 ** 3 ** 4")
	pow := e.(*pyast.BinOp)
	if _, ok := pow.Right.(*pyast.BinOp); !ok {
		t.Errorf("** should be right-associative, right = %T", pow.Right)
	}
}

func TestComprehensions(t *testing.T) {
	e := exprOf(t, "[f(x) for x in xs if x > 0 for y in ys]")
	comp := e.(*pyast.Comp)
	if comp.Kind != pyast.ListComp || len(comp.Clauses) != 2 {
		t.Fatalf("comp = %+v", comp)
	}
	if len(comp.Clauses[0].Ifs) != 1 {
		t.Errorf("ifs = %d", len(comp.Clauses[0].Ifs))
	}
	e = exprOf(t, "{k: v for k in ks}")
	dcomp := e.(*pyast.Comp)
	if dcomp.Kind != pyast.DictComp || dcomp.Value == nil {
		t.Errorf("dict comp = %+v", dcomp)
	}
	e = exprOf(t, "sum(x*x for x in xs)")
	call := e.(*pyast.Call)
	gen := call.Args[0].(*pyast.Comp)
	if gen.Kind != pyast.GeneratorExp {
		t.Errorf("generator arg kind = %v", gen.Kind)
	}
}

func TestStringConcatenation(t *testing.T) {
	e := exprOf(t, `'a' 'b' "c"`)
	s := e.(*pyast.Str)
	if s.Lit != `'a''b'"c"` {
		t.Errorf("lit = %q", s.Lit)
	}
}

func TestYieldForms(t *testing.T) {
	src := `def gen():
    yield
    yield 1
    yield 1, 2
    x = yield v
    yield from inner()
`
	mod := mustParse(t, src)
	fn := mod.Body[0].(*pyast.FunctionDef)
	y0 := fn.Body[0].(*pyast.ExprStmt).Value.(*pyast.Yield)
	if y0.Value != nil {
		t.Error("bare yield should have nil value")
	}
	y2 := fn.Body[2].(*pyast.ExprStmt).Value.(*pyast.Yield)
	if _, ok := y2.Value.(*pyast.Tuple); !ok {
		t.Errorf("yield 1, 2 value = %T", y2.Value)
	}
	asg := fn.Body[3].(*pyast.Assign)
	if _, ok := asg.Value.(*pyast.Yield); !ok {
		t.Errorf("x = yield v: value = %T", asg.Value)
	}
	yf := fn.Body[4].(*pyast.ExprStmt).Value.(*pyast.Yield)
	if !yf.From {
		t.Error("yield from not marked")
	}
}

// TestOperandFormsCPythonRefuses: not, await, lambda and yield each have
// one way into an expression, and a starred expression needs a tuple, a
// list or a call around it, so what CPython 3.11 refuses is a parse error
// here too, while the forms it accepts beside them still parse.
func TestOperandFormsCPythonRefuses(t *testing.T) {
	for _, src := range []string{
		"x = a + not b", "x = a < not b", "x = ~not a", "x = not lambda: 1",
		"x = await await y", "x = await -y", "x = (*a)", "0(0%(*()))",
		"f(yield)", "yield = 1", "[x for x in lambda: y]",
	} {
		if _, err := Parse("t.py", src+"\n"); err == nil {
			t.Errorf("%s: parsed, but CPython refuses it", src)
		}
	}
	for src, want := range map[string]string{
		"x = a + (not b)":     "a + (not b)",
		"x = a[not b]":        "a[not b]",
		"x = -await y":        "-await y",
		"x = await a ** b":    "await a ** b",
		"x = await (yield)":   "await (yield)",
		"x = (*a,)":           "(*a,)",
		"x = lambda: (yield)": "lambda: (yield)",
	} {
		mod := mustParse(t, src+"\n")
		if got := Unparse(mod.Body[0].(*pyast.Assign).Value); got != want {
			t.Errorf("%s: value %s, want %s", src, got, want)
		}
	}
	if y, ok := exprOf(t, "yield x").(*pyast.Yield); !ok || Unparse(y.Value) != "x" {
		t.Errorf("yield x: %#v", y)
	}
}

// TestNumberTakesItsDot: a '.' after decimal digits belongs to the number,
// as CPython 3.11's tokenizer reads it: 1.e5 and 1.j are literals, 1..real
// is the attribute of 1., and 1.real is an error, not (1).real.
func TestNumberTakesItsDot(t *testing.T) {
	for src, want := range map[string]string{
		"1.e5":          "1.e5",
		"1.j":           "1.j",
		"1.E+3j":        "1.E+3j",
		"1_0.e1_0":      "1_0.e1_0",
		"1..real":       "(1.).real",
		"1.5.real":      "(1.5).real",
		"1 .real":       "(1).real",
		"1.if c else 2": "1. if c else 2",
	} {
		if got := Unparse(exprOf(t, src)); got != want {
			t.Errorf("%s: %s, want %s", src, got, want)
		}
	}
	if _, err := Parse("t.py", "x = 1.real\n"); err == nil {
		t.Error("x = 1.real parsed, but CPython refuses it")
	}
}

func TestAsyncForms(t *testing.T) {
	src := `async def handler(req):
    async with session.get(url) as resp:
        data = await resp.json()
    async for row in cursor:
        use(row)
`
	mod := mustParse(t, src)
	fn := mod.Body[0].(*pyast.FunctionDef)
	if !fn.Async {
		t.Error("function not async")
	}
	w := fn.Body[0].(*pyast.With)
	if !w.Async {
		t.Error("with not async")
	}
	aw := w.Body[0].(*pyast.Assign).Value.(*pyast.Await)
	if Unparse(aw.Value) != "resp.json()" {
		t.Errorf("await value = %q", Unparse(aw.Value))
	}
	f := fn.Body[1].(*pyast.For)
	if !f.Async {
		t.Error("for not async")
	}
}

func TestGlobalNonlocalDelAssert(t *testing.T) {
	src := `global a, b
nonlocal c
del d, e.f
assert x, "message"
`
	mod := mustParse(t, src)
	g := mod.Body[0].(*pyast.Global)
	if len(g.Names) != 2 {
		t.Errorf("global names = %v", g.Names)
	}
	if _, ok := mod.Body[1].(*pyast.Nonlocal); !ok {
		t.Errorf("statement 1 = %T", mod.Body[1])
	}
	d := mod.Body[2].(*pyast.Delete)
	if len(d.Targets) != 2 || Unparse(d.Targets[1]) != "e.f" {
		t.Errorf("del targets = %v", d.Targets)
	}
	a := mod.Body[3].(*pyast.Assert)
	if a.Msg == nil {
		t.Error("assert message missing")
	}
}

func TestWalrus(t *testing.T) {
	src := "if (n := len(a)) > 10:\n    pass\n"
	mod := mustParse(t, src)
	ifs := mod.Body[0].(*pyast.If)
	cmp := ifs.Cond.(*pyast.Compare)
	if _, ok := cmp.Left.(*pyast.NamedExpr); !ok {
		t.Errorf("walrus = %T", cmp.Left)
	}
}

func TestInlineSuite(t *testing.T) {
	mod := mustParse(t, "if x: y = 1; z = 2\n")
	ifs := mod.Body[0].(*pyast.If)
	if len(ifs.Body) != 2 {
		t.Errorf("inline suite statements = %d", len(ifs.Body))
	}
}

func TestSyntaxErrorRecovery(t *testing.T) {
	src := "x = 1\ny = ((\nz = 3\n"
	mod, err := Parse("test.py", src)
	if err == nil {
		t.Error("expected a syntax error")
	}
	// x = 1 must still be present despite the bad middle line.
	if len(mod.Body) == 0 {
		t.Fatal("no statements recovered")
	}
	if Unparse(mod.Body[0].(*pyast.Assign).Targets[0]) != "x" {
		t.Error("first statement lost")
	}
}

func TestErrorPositionsReported(t *testing.T) {
	_, err := Parse("app.py", "def f(:\n    pass\n")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "app.py:1:") {
		t.Errorf("error lacks position: %v", err)
	}
}

func TestDeeplyNestedStructures(t *testing.T) {
	var b strings.Builder
	depth := 40
	for i := 0; i < depth; i++ {
		b.WriteString(strings.Repeat("    ", i))
		b.WriteString("if x:\n")
	}
	b.WriteString(strings.Repeat("    ", depth))
	b.WriteString("pass\n")
	mod := mustParse(t, b.String())
	count := 0
	pyast.Inspect(mod, func(n pyast.Node) bool {
		if _, ok := n.(*pyast.If); ok {
			count++
		}
		return true
	})
	if count != depth {
		t.Errorf("nested ifs = %d, want %d", count, depth)
	}
}

// TestParserNeverPanics: arbitrary byte soup must produce errors, not panics.
func TestParserNeverPanics(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %q: %v", src, r)
			}
		}()
		_, _ = Parse("fuzz.py", src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestParserNeverPanicsOnTokenSoup builds inputs from plausible Python
// fragments, a denser error surface than random strings.
func TestParserNeverPanicsOnTokenSoup(t *testing.T) {
	frags := []string{
		"def ", "f", "(", ")", ":", "\n", "    ", "x", "=", "1", "+",
		"lambda ", "[", "]", "{", "}", ",", "for ", "in ", "if ", "else ",
		"import ", "from ", ".", "*", "**", "yield ", "return ", "@",
		"'s'", "await ", "class ", "try:", "except", "with ", "as ", ":=",
	}
	f := func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(frags[int(p)%len(frags)])
		}
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %q: %v", b.String(), r)
			}
		}()
		_, _ = Parse("fuzz.py", b.String())
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseModuleStatementCount(t *testing.T) {
	// A file with per-line recovery must keep good statements on both
	// sides of an error.
	src := "a = 1\nb = ?bad?\nc = 3\n"
	mod, err := Parse("test.py", src)
	if err == nil {
		t.Error("expected error")
	}
	got := 0
	for _, s := range mod.Body {
		if _, ok := s.(*pyast.Assign); ok {
			got++
		}
	}
	if got < 2 {
		t.Errorf("recovered assignments = %d, want >= 2", got)
	}
}

// TestNestingBudget: every right-nested form within the depth budget
// parses, and the same form far past it is a parse error at a position
// while the statements around it still parse.
func TestNestingBudget(t *testing.T) {
	forms := map[string]func(n int) string{
		"power": func(n int) string { return "y" + strings.Repeat("**y", n) },
		"unary": func(n int) string { return strings.Repeat("-", n) + "y" },
		"not":   func(n int) string { return strings.Repeat("not ", n) + "y" },
		// await takes a primary, so awaits nest through their powers.
		"await":  func(n int) string { return strings.Repeat("await y ** ", n) + "y" },
		"lambda": func(n int) string { return strings.Repeat("lambda: ", n) + "y" },
		"ifexp":  func(n int) string { return strings.Repeat("y if y else ", n) + "y" },
	}
	for name, form := range forms {
		if _, err := Parse("t.py", "x = "+form(100)+"\n"); err != nil {
			t.Errorf("%s at 100: %v", name, err)
		}
		mod, err := Parse("t.py", "a = 1\nx = "+form(100000)+"\nb = 2\n")
		if err == nil || !strings.HasPrefix(err.Error(), "t.py:2:") || !strings.Contains(err.Error(), "expression nested too deeply") {
			t.Errorf("%s at 100000: error %v, want one on line 2 saying the expression is nested too deeply", name, err)
		}
		if len(mod.Body) != 2 {
			t.Errorf("%s at 100000: %d statements around it parsed, want 2", name, len(mod.Body))
		}
	}
}

// TestLeftChainsRecordTheirStart: every call, attribute, subscript and
// binary operation the parser builds carries the position of its leftmost
// operand, so Pos answers without walking a chain like f()()()… down to
// its atom — a walk per call event once made such a chain quadratic.
func TestLeftChainsRecordTheirStart(t *testing.T) {
	mod := mustParse(t, "x = f"+strings.Repeat("()", 50)+"\n"+
		"y = 1"+strings.Repeat(" + 1", 50)+"\n"+
		"z = a.b(c)[d].e(f)(g) ** h - i * j.k[l] | m\n"+
		"w = (p + q)[0].r(s) - -t.u\n")
	// leftmost descends to the first operand by the children alone.
	var leftmost func(e pyast.Expr) pytoken.Pos
	leftmost = func(e pyast.Expr) pytoken.Pos {
		switch x := e.(type) {
		case *pyast.Call:
			return leftmost(x.Func)
		case *pyast.Attribute:
			return leftmost(x.Value)
		case *pyast.Subscript:
			return leftmost(x.Value)
		case *pyast.BinOp:
			return leftmost(x.Left)
		}
		return e.Pos()
	}
	chains := 0
	pyast.Inspect(mod, func(n pyast.Node) bool {
		var start pytoken.Pos
		switch x := n.(type) {
		case *pyast.Call:
			start = x.Start
		case *pyast.Attribute:
			start = x.Start
		case *pyast.Subscript:
			start = x.Start
		case *pyast.BinOp:
			start = x.Start
		default:
			return true
		}
		chains++
		if want := leftmost(n.(pyast.Expr)); start != want {
			t.Errorf("%T at %v records start %v, want %v", n, n.Pos(), start, want)
		}
		return true
	})
	if chains < 100 {
		t.Fatalf("found %d chain nodes, want over 100", chains)
	}
}
