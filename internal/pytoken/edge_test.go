package pytoken

import (
	"strings"
	"testing"
)

func TestTripleQuotedWithEmbeddedQuotes(t *testing.T) {
	src := `s = """she said "hi" to me"""` + "\n"
	toks, err := ScanAll("t.py", src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Kind != STRING || toks[2].Lit != `"""she said "hi" to me"""` {
		t.Errorf("got %v", toks[2])
	}
}

func TestTripleQuotedDocstringSpansLines(t *testing.T) {
	src := "def f():\n    \"\"\"doc\n    more doc\n    \"\"\"\n    return 1\n"
	toks, err := ScanAll("t.py", src)
	if err != nil {
		t.Fatal(err)
	}
	// The docstring must be one STRING token and the function body must
	// still parse (NEWLINE after the string, return afterwards).
	sawString, sawReturn := false, false
	for _, tok := range toks {
		if tok.Kind == STRING {
			sawString = true
		}
		if tok.Kind == KwReturn {
			sawReturn = true
		}
	}
	if !sawString || !sawReturn {
		t.Errorf("string=%v return=%v", sawString, sawReturn)
	}
}

func TestEscapedQuoteInsideString(t *testing.T) {
	toks, err := ScanAll("t.py", `x = 'don\'t'`+"\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Lit != `'don\'t'` {
		t.Errorf("lit = %q", toks[2].Lit)
	}
}

func TestRawStringBackslashes(t *testing.T) {
	toks, err := ScanAll("t.py", `p = r'C:\new\folder'`+"\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Lit != `r'C:\new\folder'` {
		t.Errorf("lit = %q", toks[2].Lit)
	}
}

func TestCommentAtEndOfCodeLine(t *testing.T) {
	toks, err := ScanAll("t.py", "x = 1  # trailing comment\ny = 2\n")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{}
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []Kind{NAME, ASSIGN, NUMBER, NEWLINE, NAME, ASSIGN, NUMBER, NEWLINE, EOF}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("kind[%d] = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestIndentInsideBracketsIgnored(t *testing.T) {
	src := "x = [\n        1,\n2,\n    3]\ny = 4\n"
	toks, err := ScanAll("t.py", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.Kind == INDENT || tok.Kind == DEDENT {
			t.Fatalf("indentation token inside brackets: %v", tok)
		}
	}
}

func TestSemicolonSeparatedStatements(t *testing.T) {
	toks, _ := ScanAll("t.py", "a = 1; b = 2\n")
	semi := 0
	for _, tok := range toks {
		if tok.Kind == SEMI {
			semi++
		}
	}
	if semi != 1 {
		t.Errorf("semicolons = %d", semi)
	}
}

func TestUnicodeIdentifiers(t *testing.T) {
	toks, err := ScanAll("t.py", "naïve = 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != NAME || toks[0].Lit != "naïve" {
		t.Errorf("got %v", toks[0])
	}
}

func TestFStringWithBraces(t *testing.T) {
	toks, err := ScanAll("t.py", `m = f"rows: {len(rows)} of {total}"`+"\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Kind != STRING {
		t.Errorf("f-string not a single STRING token: %v", toks[2])
	}
}

func TestMixedOperatorsNoSpaces(t *testing.T) {
	toks, _ := ScanAll("t.py", "x=-1\ny=a<=b\nz=c//d\n")
	var kinds []Kind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []Kind{
		NAME, ASSIGN, MINUS, NUMBER, NEWLINE,
		NAME, ASSIGN, NAME, LE, NAME, NEWLINE,
		NAME, ASSIGN, NAME, DOUBLESLASH, NAME, NEWLINE, EOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("kind[%d] = %v, want %v", i, kinds[i], want[i])
		}
	}
}

// Line endings are normalized only when the input has a carriage return.
// Every CR flavour must yield exactly the tokens, literals and positions
// of the same text with LF endings — the input the scanner never rewrites.
func TestCarriageReturnNormalization(t *testing.T) {
	const lf = "def f(a):\n    s = 'x'\n    if a:\n        return \"\"\"doc\nmore\"\"\"\n\n    return s  # done\ny = [1,\n     2]\n"
	cases := map[string]string{
		"crlf":           strings.ReplaceAll(lf, "\n", "\r\n"),
		"lone cr":        strings.ReplaceAll(lf, "\n", "\r"),
		"mixed":          strings.Replace(strings.Replace(lf, "\n", "\r\n", 2), "\n    if", "\r    if", 1),
		"cr at eof only": strings.TrimSuffix(lf, "\n") + "\r",
		"no newline":     "x = 1",
		"crlf crlf":      "x = 1\r\n\r\ny = 2\r\n",
	}
	for name, src := range cases {
		normalized := strings.ReplaceAll(strings.ReplaceAll(src, "\r\n", "\n"), "\r", "\n")
		want, wantErr := ScanAll("t.py", normalized)
		got, gotErr := ScanAll("t.py", src)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%s: error %v, want %v", name, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d tokens, want %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: token %d = %v at %v, want %v at %v", name, i, got[i], got[i].Pos, want[i], want[i].Pos)
			}
		}
		for _, tok := range got {
			if strings.ContainsRune(tok.Lit, '\r') {
				t.Errorf("%s: literal %q keeps a carriage return", name, tok.Lit)
			}
		}
	}
}

// A Scanner re-initialized over new input behaves like a new one, and
// tokens it returned earlier are unaffected.
func TestScannerInitReuse(t *testing.T) {
	inputs := []string{
		"if a:\n    if b:\n        c = 'lit'\n",
		"x = (\n", // ends inside a bracket, indentation stack untouched
		"def f():\n\treturn 1\n  bad_dedent\n",
		"",
		"s = f'{a}' \"unterminated\n",
	}
	var sc Scanner
	var buf []Token
	for round := 0; round < 2; round++ {
		for _, src := range inputs {
			want, wantErr := ScanAll("t.py", src)
			sc.Init("t.py", src)
			var gotErr error
			buf, gotErr = sc.ScanAllInto(buf)
			if len(buf) != len(want) {
				t.Fatalf("%q: %d tokens from a reused scanner, want %d", src, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Errorf("%q: token %d = %v, want %v", src, i, buf[i], want[i])
				}
			}
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Errorf("%q: error %v, want %v", src, gotErr, wantErr)
			}
		}
	}
}
