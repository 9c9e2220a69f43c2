package pyparse

import (
	"reflect"
	"testing"

	"seldon/internal/pyast"
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
		got := fstringFragments(c.lit)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("fragments(%s) = %q, want %q", c.lit, got, c.want)
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
