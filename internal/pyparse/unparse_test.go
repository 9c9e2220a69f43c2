package pyparse

import (
	"fmt"
	"strings"
	"testing"

	"seldon/internal/pyast"
	"seldon/internal/pytoken"
)

// Unparse renders an expression back to compact Python-like source text:
// the parser tests' oracle, which compares what was parsed with what was
// written. The output is canonical (minimal parentheses, single spaces
// around binary operators) rather than a byte-exact copy of the original
// source.
func Unparse(e pyast.Expr) string {
	var b strings.Builder
	if y, ok := e.(*pyast.Yield); ok {
		writeYield(&b, y) // parenthesized everywhere but at the top
	} else {
		unparse(&b, e)
	}
	return b.String()
}

func unparse(b *strings.Builder, e pyast.Expr) {
	switch x := e.(type) {
	case nil:
		return
	case *pyast.Name:
		b.WriteString(x.Ident)
	case *pyast.Num:
		b.WriteString(x.Lit)
	case *pyast.Str:
		writeLiteral(b, x.Lit)
	case *pyast.JoinedStr:
		writeLiteral(b, x.Lit)
	case *pyast.NameConst:
		b.WriteString(x.Value)
	case *pyast.EllipsisLit:
		b.WriteString("...")
	case *pyast.Attribute:
		if _, ok := x.Value.(*pyast.Num); ok {
			// 1..real would scan as 1 then two dots.
			b.WriteByte('(')
			unparse(b, x.Value)
			b.WriteByte(')')
		} else {
			postfixBase(b, x.Value)
		}
		b.WriteByte('.')
		b.WriteString(x.Attr)
	case *pyast.Subscript:
		postfixBase(b, x.Value)
		b.WriteByte('[')
		if tup, ok := x.Index.(*pyast.Tuple); ok && holdsSlice(tup) {
			// A slice cannot stand inside parentheses.
			writeList(b, tup.Elts)
			if len(tup.Elts) == 1 {
				b.WriteByte(',')
			}
		} else {
			unparse(b, x.Index)
		}
		b.WriteByte(']')
	case *pyast.Slice:
		unparse(b, x.Lo)
		b.WriteByte(':')
		unparse(b, x.Hi)
		if x.Step != nil {
			b.WriteByte(':')
			unparse(b, x.Step)
		}
	case *pyast.Call:
		postfixBase(b, x.Func)
		b.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			unparse(b, a)
		}
		for i, kw := range x.Keywords {
			if i > 0 || len(x.Args) > 0 {
				b.WriteString(", ")
			}
			if kw.Name == "" {
				b.WriteString("**")
			} else {
				b.WriteString(kw.Name)
				b.WriteByte('=')
			}
			unparse(b, kw.Value)
		}
		b.WriteByte(')')
	case *pyast.BinOp:
		// Chains print flat, as they are written: a left operand at its
		// operator's level, and ** and unary operators right of **.
		if l, ok := x.Left.(*pyast.BinOp); ok && x.Op != pytoken.DOUBLESTAR && prec[l.Op] == prec[x.Op] {
			unparse(b, x.Left)
		} else {
			maybeParen(b, x.Left)
		}
		fmt.Fprintf(b, " %s ", x.Op)
		if x.Op == pytoken.DOUBLESTAR && flatPower(x.Right) {
			unparse(b, x.Right)
		} else {
			maybeParen(b, x.Right)
		}
	case *pyast.BoolOp:
		for i, v := range x.Values {
			if i > 0 {
				fmt.Fprintf(b, " %s ", x.Op)
			}
			maybeParen(b, v)
		}
	case *pyast.UnaryOp:
		if x.Op == pytoken.KwNot {
			b.WriteString("not ")
		} else {
			fmt.Fprintf(b, "%s", x.Op)
		}
		if _, ok := x.Operand.(*pyast.UnaryOp); ok || flatPower(x.Operand) {
			unparse(b, x.Operand)
		} else {
			maybeParen(b, x.Operand)
		}
	case *pyast.Compare:
		maybeParen(b, x.Left)
		for i, op := range x.Ops {
			b.WriteByte(' ')
			switch {
			case op.Kind == pytoken.KwIn && op.Not:
				b.WriteString("not in")
			case op.Kind == pytoken.KwIs && op.Not:
				b.WriteString("is not")
			default:
				fmt.Fprintf(b, "%s", op.Kind)
			}
			b.WriteByte(' ')
			maybeParen(b, x.Comparators[i])
		}
	case *pyast.IfExp:
		maybeParen(b, x.Then)
		b.WriteString(" if ")
		maybeParen(b, x.Cond)
		b.WriteString(" else ")
		if _, ok := x.Else.(*pyast.IfExp); ok {
			unparse(b, x.Else)
		} else {
			maybeParen(b, x.Else)
		}
	case *pyast.Lambda:
		b.WriteString("lambda")
		for i, p := range x.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte(' ')
			writeParam(b, p)
		}
		b.WriteString(": ")
		unparse(b, x.Body)
	case *pyast.Tuple:
		b.WriteByte('(')
		for i, el := range x.Elts {
			if i > 0 {
				b.WriteString(", ")
			}
			unparse(b, el)
		}
		if len(x.Elts) == 1 {
			b.WriteByte(',')
		}
		b.WriteByte(')')
	case *pyast.List:
		b.WriteByte('[')
		writeList(b, x.Elts)
		b.WriteByte(']')
	case *pyast.Set:
		b.WriteByte('{')
		writeList(b, x.Elts)
		b.WriteByte('}')
	case *pyast.Dict:
		b.WriteByte('{')
		for i := range x.Keys {
			if i > 0 {
				b.WriteString(", ")
			}
			if x.Keys[i] == nil {
				b.WriteString("**")
				unparse(b, x.Values[i])
				continue
			}
			unparse(b, x.Keys[i])
			b.WriteString(": ")
			unparse(b, x.Values[i])
		}
		b.WriteByte('}')
	case *pyast.Comp:
		open, close := compBrackets(x.Kind)
		b.WriteString(open)
		unparse(b, x.Elt)
		if x.Kind == pyast.DictComp {
			b.WriteString(": ")
			unparse(b, x.Value)
		}
		for _, c := range x.Clauses {
			b.WriteString(" for ")
			maybeParen(b, c.Target)
			b.WriteString(" in ")
			maybeParen(b, c.Iter)
			for _, cond := range c.Ifs {
				b.WriteString(" if ")
				maybeParen(b, cond)
			}
		}
		b.WriteString(close)
	case *pyast.Starred:
		b.WriteByte('*')
		maybeParen(b, x.Value) // **x would be one token
	case *pyast.Await:
		b.WriteString("await ")
		maybeParen(b, x.Value)
	case *pyast.Yield:
		b.WriteByte('(')
		writeYield(b, x)
		b.WriteByte(')')
	case *pyast.NamedExpr:
		b.WriteByte('(')
		unparse(b, x.Target)
		b.WriteString(" := ")
		unparse(b, x.Value)
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "<%T>", e)
	}
}

func compBrackets(k pyast.CompKind) (string, string) {
	switch k {
	case pyast.ListComp:
		return "[", "]"
	case pyast.SetComp, pyast.DictComp:
		return "{", "}"
	default:
		return "(", ")"
	}
}

func writeList(b *strings.Builder, es []pyast.Expr) {
	for i, e := range es {
		if i > 0 {
			b.WriteString(", ")
		}
		unparse(b, e)
	}
}

func writeParam(b *strings.Builder, p *pyast.Param) {
	if p.Star {
		b.WriteByte('*')
	}
	if p.DoubleStar {
		b.WriteString("**")
	}
	b.WriteString(p.Name)
	if p.Default != nil {
		b.WriteByte('=')
		unparse(b, p.Default)
	}
}

// maybeParen parenthesizes compound subexpressions so the canonical output
// is unambiguous without tracking precedence.
func maybeParen(b *strings.Builder, e pyast.Expr) {
	switch e.(type) {
	case *pyast.BinOp, *pyast.BoolOp, *pyast.Compare, *pyast.IfExp, *pyast.Lambda, *pyast.UnaryOp, *pyast.Starred:
		b.WriteByte('(')
		unparse(b, e)
		b.WriteByte(')')
	default:
		unparse(b, e)
	}
}

// flatPower reports whether e needs no parentheses as the operand of a
// unary operator or right of **: a unary operation other than not, or
// a power.
func flatPower(e pyast.Expr) bool {
	switch x := e.(type) {
	case *pyast.UnaryOp:
		return x.Op != pytoken.KwNot
	case *pyast.BinOp:
		return x.Op == pytoken.DOUBLESTAR
	}
	return false
}

// postfixBase writes the value a call, attribute or subscript applies
// to, parenthesized where the suffix would otherwise bind inside it.
func postfixBase(b *strings.Builder, e pyast.Expr) {
	if _, ok := e.(*pyast.Await); ok {
		b.WriteByte('(')
		unparse(b, e)
		b.WriteByte(')')
		return
	}
	maybeParen(b, e)
}

func holdsSlice(t *pyast.Tuple) bool {
	for _, e := range t.Elts {
		if _, ok := e.(*pyast.Slice); ok {
			return true
		}
	}
	return false
}

func writeYield(b *strings.Builder, y *pyast.Yield) {
	b.WriteString("yield")
	if y.From {
		b.WriteString(" from")
	}
	if y.Value != nil {
		b.WriteByte(' ')
		unparse(b, y.Value)
	}
}

// writeLiteral writes a string literal's text. The parser joins adjacent
// literals into one text, which need not scan back as one token (two
// empty literals join to the opening quotes of a triple-quoted one), so
// such a text is written as the literals it splits into, a blank apart.
func writeLiteral(b *strings.Builder, lit string) {
	if oneLiteral(lit) {
		b.WriteString(lit)
		return
	}
	// next[i] is where the first literal of a split of lit[i:] ends:
	// 0 while unknown, -1 if lit[i:] does not split.
	next := make([]int, len(lit))
	var splits func(i int) bool
	splits = func(i int) bool {
		if i == len(lit) {
			return true
		}
		if next[i] == 0 {
			next[i] = -1
			for _, n := range literalEnds(lit[i:]) {
				if splits(i + n) {
					next[i] = i + n
					break
				}
			}
		}
		return next[i] > 0
	}
	if !splits(0) {
		b.WriteString(lit) // not joined from literals: nothing to split
		return
	}
	for i := 0; i < len(lit); i = next[i] {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(lit[i:next[i]])
	}
}

// literalEnds lists the lengths a literal at the start of s can have:
// where the scanner ends it, and, when it opens with three quotes after
// its prefix letters, just past an empty literal made of the first two.
func literalEnds(s string) []int {
	var ends []int
	if toks, _ := pytoken.ScanAll("lit.py", s); toks[0].Kind == pytoken.STRING && oneLiteral(toks[0].Lit) {
		ends = append(ends, len(toks[0].Lit))
	}
	if q := strings.IndexAny(s, `'"`); q >= 0 && q <= 2 && strings.Trim(s[:q], "rRbBuUfF") == "" &&
		strings.HasPrefix(s[q:], strings.Repeat(s[q:q+1], 3)) {
		ends = append(ends, q+2)
	}
	return ends
}

// oneLiteral reports whether s scans as exactly one terminated string.
func oneLiteral(s string) bool {
	toks, err := pytoken.ScanAll("lit.py", s)
	return err == nil && len(toks) == 3 && toks[0].Kind == pytoken.STRING && toks[0].Lit == s
}

func name(s string) *pyast.Name { return &pyast.Name{Ident: s, NamePos: pytoken.Pos{Line: 1}} }

func TestUnparseBasics(t *testing.T) {
	cases := []struct {
		expr pyast.Expr
		want string
	}{
		{name("x"), "x"},
		{&pyast.Num{Lit: "42"}, "42"},
		{&pyast.Str{Lit: "'s'"}, "'s'"},
		{&pyast.NameConst{Value: "None"}, "None"},
		{&pyast.EllipsisLit{}, "..."},
		{&pyast.Attribute{Value: name("a"), Attr: "b"}, "a.b"},
		{&pyast.Subscript{Value: name("d"), Index: &pyast.Str{Lit: "'k'"}}, "d['k']"},
		{&pyast.Call{Func: name("f"), Args: []pyast.Expr{name("a")}}, "f(a)"},
		{&pyast.Call{Func: name("f"), Keywords: []*pyast.Keyword{{Name: "k", Value: name("v")}}}, "f(k=v)"},
		{&pyast.Call{Func: name("f"), Keywords: []*pyast.Keyword{{Value: name("m")}}}, "f(**m)"},
		{&pyast.BinOp{Left: name("a"), Op: pytoken.PLUS, Right: name("b")}, "a + b"},
		{&pyast.UnaryOp{Op: pytoken.MINUS, Operand: name("x")}, "-x"},
		{&pyast.UnaryOp{Op: pytoken.KwNot, Operand: name("x")}, "not x"},
		{&pyast.Tuple{}, "()"},
		{&pyast.Tuple{Elts: []pyast.Expr{name("a")}}, "(a,)"},
		{&pyast.List{Elts: []pyast.Expr{name("a"), name("b")}}, "[a, b]"},
		{&pyast.Set{Elts: []pyast.Expr{name("a")}}, "{a}"},
		{&pyast.Dict{}, "{}"},
		{&pyast.Dict{Keys: []pyast.Expr{nil}, Values: []pyast.Expr{name("m")}}, "{**m}"},
		{&pyast.Starred{Value: name("a")}, "*a"},
		{&pyast.Await{Value: name("f")}, "await f"},
		{&pyast.Yield{}, "yield"},
		{&pyast.Yield{Value: name("x"), From: true}, "yield from x"},
		{&pyast.NamedExpr{Target: name("n"), Value: name("v")}, "(n := v)"},
		{&pyast.Slice{Lo: name("a"), Hi: name("b"), Step: name("c")}, "a:b:c"},
		{&pyast.IfExp{Cond: name("c"), Then: name("a"), Else: name("b")}, "a if c else b"},
		{&pyast.Lambda{Params: []*pyast.Param{{Name: "x"}}, Body: name("x")}, "lambda x: x"},
		{&pyast.Compare{Left: name("a"), Ops: []pyast.CompareOp{{Kind: pytoken.KwIn, Not: true}},
			Comparators: []pyast.Expr{name("b")}}, "a not in b"},
		{&pyast.Compare{Left: name("a"), Ops: []pyast.CompareOp{{Kind: pytoken.KwIs, Not: true}},
			Comparators: []pyast.Expr{name("b")}}, "a is not b"},
		{&pyast.BoolOp{Op: pytoken.KwOr, Values: []pyast.Expr{name("a"), name("b")}}, "a or b"},
	}
	for _, c := range cases {
		if got := Unparse(c.expr); got != c.want {
			t.Errorf("Unparse = %q, want %q", got, c.want)
		}
	}
}

func TestUnparseNilSafe(t *testing.T) {
	if got := Unparse(nil); got != "" {
		t.Errorf("Unparse(nil) = %q", got)
	}
}

func TestUnparseComprehensions(t *testing.T) {
	comp := &pyast.Comp{
		Kind: pyast.ListComp,
		Elt:  &pyast.Call{Func: name("f"), Args: []pyast.Expr{name("x")}},
		Clauses: []*pyast.CompClause{{
			Target: name("x"),
			Iter:   name("xs"),
			Ifs:    []pyast.Expr{name("p")},
		}},
	}
	if got := Unparse(comp); got != "[f(x) for x in xs if p]" {
		t.Errorf("list comp = %q", got)
	}
	dcomp := &pyast.Comp{Kind: pyast.DictComp, Elt: name("k"), Value: name("v"),
		Clauses: []*pyast.CompClause{{Target: name("k"), Iter: name("m")}}}
	if got := Unparse(dcomp); got != "{k: v for k in m}" {
		t.Errorf("dict comp = %q", got)
	}
	gen := &pyast.Comp{Kind: pyast.GeneratorExp, Elt: name("x"),
		Clauses: []*pyast.CompClause{{Target: name("x"), Iter: name("xs")}}}
	if got := Unparse(gen); got != "(x for x in xs)" {
		t.Errorf("generator = %q", got)
	}
}

func TestUnparseParenthesization(t *testing.T) {
	// Compound subexpressions get canonical parentheses.
	inner := &pyast.BinOp{Left: name("a"), Op: pytoken.PLUS, Right: name("b")}
	cases := []struct {
		expr pyast.Expr
		want string
	}{
		{&pyast.BinOp{Left: inner, Op: pytoken.STAR, Right: name("c")}, "(a + b) * c"},
		{&pyast.UnaryOp{Op: pytoken.MINUS, Operand: inner}, "-(a + b)"},
		{&pyast.Compare{Left: inner, Ops: []pyast.CompareOp{{Kind: pytoken.LT}},
			Comparators: []pyast.Expr{name("c")}}, "(a + b) < c"},
		{&pyast.Await{Value: inner}, "await (a + b)"},
		{&pyast.BoolOp{Op: pytoken.KwAnd, Values: []pyast.Expr{inner, name("c")}}, "(a + b) and c"},
	}
	for _, c := range cases {
		if got := Unparse(c.expr); got != c.want {
			t.Errorf("Unparse = %q, want %q", got, c.want)
		}
	}
}

func TestUnparseSetCompAndGenerators(t *testing.T) {
	sc := &pyast.Comp{Kind: pyast.SetComp, Elt: name("x"),
		Clauses: []*pyast.CompClause{{Target: name("x"), Iter: name("xs")}}}
	if got := Unparse(sc); got != "{x for x in xs}" {
		t.Errorf("set comp = %q", got)
	}
}

func TestUnparseParamForms(t *testing.T) {
	lam := &pyast.Lambda{Params: []*pyast.Param{
		{Name: "a", Default: name("d")},
		{Name: "args", Star: true},
		{Name: "kw", DoubleStar: true},
	}, Body: name("a")}
	if got := Unparse(lam); got != "lambda a=d, *args, **kw: a" {
		t.Errorf("lambda = %q", got)
	}
}

func TestUnparseSubscriptSliceForms(t *testing.T) {
	sl := &pyast.Subscript{Value: name("xs"), Index: &pyast.Slice{Lo: nil, Hi: name("n")}}
	if got := Unparse(sl); got != "xs[:n]" {
		t.Errorf("slice = %q", got)
	}
	tup := &pyast.Subscript{Value: name("m"), Index: &pyast.Tuple{Elts: []pyast.Expr{name("i"), name("j")}}}
	if got := Unparse(tup); got != "m[(i, j)]" {
		t.Errorf("tuple index = %q", got)
	}
}

func TestUnparseJoinedStr(t *testing.T) {
	js := &pyast.JoinedStr{Lit: `f"{x}"`, Values: []pyast.Expr{name("x")}}
	if got := Unparse(js); got != `f"{x}"` {
		t.Errorf("joined str = %q", got)
	}
}
