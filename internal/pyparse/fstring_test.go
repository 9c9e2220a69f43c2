package pyparse

import (
	"reflect"
	"strings"
	"testing"

	"seldon/internal/pyast"
	"seldon/internal/pytoken"
)

func TestFStringFragments(t *testing.T) {
	cases := []struct {
		lit  string
		want []string
	}{
		{`f"hello {name}"`, []string{"name"}},
		{`f"{a} and {b}"`, []string{"a", "b"}},
		{`f"none here"`, nil},
		{`f"escaped {{brace}} only"`, nil},
		{`f"{x:>10}"`, []string{"x"}},
		{`f"{x!r}"`, []string{"x"}},
		{`f"{x!r:>10}"`, []string{"x"}},
		{`f"{d['k']}"`, []string{"d['k']"}},
		{`f"{f(a, b)}"`, []string{"f(a, b)"}},
		{`f"{a != b}"`, []string{"a != b"}},
		{`f"{ {1: 2}[1] }"`, []string{"{1: 2}[1]"}},
		{`F'{x}'`, []string{"x"}},
		{`rf'{x}'`, []string{"x"}},
		{`f"""{x}"""`, []string{"x"}},
		{`'not an fstring {x}'`, nil},
		{`f"{unterminated"`, nil},
	}
	for _, c := range cases {
		var got []string
		for _, f := range fstringFragments(c.lit) {
			got = append(got, f.expr)
			if !strings.HasPrefix(c.lit[f.at:], f.expr) {
				t.Errorf("fragments(%s): %q is not at offset %d", c.lit, f.expr, f.at)
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("fragments(%s) = %q, want %q", c.lit, got, c.want)
		}
	}
}

// TestFStringFieldsSitInTheFile: a replacement field's nodes carry the
// file's line and column (1-based line, 0-based byte column), the ones
// CPython 3.11's ast gives them — on the literal's own line after its
// prefix, quotes and leading spaces, and in a triple-quoted literal that
// spans lines on the line the field sits on, including a field whose
// expression itself spans lines.
func TestFStringFieldsSitInTheFile(t *testing.T) {
	src := "import os\n" +
		"x = 1\n" +
		"os.system(f\"echo {request.args.get('q')}\")\n" +
		"y = rf'''first\n" +
		"  second { user.name } and {f(a,\n" +
		"    b)}'''\n"
	mod := mustParse(t, src)
	got := map[string]pytoken.Pos{}
	pyast.Inspect(mod, func(n pyast.Node) bool {
		switch n := n.(type) {
		case *pyast.Name:
			got[n.Ident] = n.Pos()
		case *pyast.Call:
			got[Unparse(n)] = n.Pos()
		case *pyast.Attribute:
			got[Unparse(n)] = n.Pos()
		}
		return true
	})
	for expr, want := range map[string]pytoken.Pos{
		"request.args.get('q')": {Line: 3, Col: 18},
		"request.args.get":      {Line: 3, Col: 18},
		"request":               {Line: 3, Col: 18},
		"user.name":             {Line: 5, Col: 11},
		"user":                  {Line: 5, Col: 11},
		"f(a, b)":               {Line: 5, Col: 28},
		"a":                     {Line: 5, Col: 30},
		"b":                     {Line: 6, Col: 4},
	} {
		if got[expr] != want {
			t.Errorf("%s at %v, want %v", expr, got[expr], want)
		}
	}
}

func TestFStringParsedAsJoinedStr(t *testing.T) {
	e := exprOf(t, `f"SELECT * FROM t WHERE k = {term}"`)
	js, ok := e.(*pyast.JoinedStr)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if len(js.Values) != 1 {
		t.Fatalf("values = %d", len(js.Values))
	}
	if Unparse(js.Values[0]) != "term" {
		t.Errorf("value = %q", Unparse(js.Values[0]))
	}
}

func TestPlainFStringStaysStr(t *testing.T) {
	e := exprOf(t, `f"static text"`)
	if _, ok := e.(*pyast.Str); !ok {
		t.Fatalf("got %T, want Str", e)
	}
}

func TestFStringComplexInterpolations(t *testing.T) {
	e := exprOf(t, `f"{user.name}: {items[0]} ({len(items)} total)"`)
	js, ok := e.(*pyast.JoinedStr)
	if !ok {
		t.Fatalf("got %T", e)
	}
	var reps []string
	for _, v := range js.Values {
		reps = append(reps, Unparse(v))
	}
	want := []string{"user.name", "items[0]", "len(items)"}
	if !reflect.DeepEqual(reps, want) {
		t.Errorf("values = %v, want %v", reps, want)
	}
}

func TestConcatenatedFStrings(t *testing.T) {
	e := exprOf(t, `f"{a}" f"{b}" "tail"`)
	js, ok := e.(*pyast.JoinedStr)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if len(js.Values) != 2 {
		t.Errorf("values = %d, want 2", len(js.Values))
	}
}

func TestFStringBadFragmentIgnored(t *testing.T) {
	// A syntactically broken interpolation must not poison the parse.
	mod := mustParse(t, `x = f"{]broken}"`+"\n")
	if len(mod.Body) != 1 {
		t.Fatalf("statements = %d", len(mod.Body))
	}
}
