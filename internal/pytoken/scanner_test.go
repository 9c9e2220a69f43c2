package pytoken

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// Scan returns the next token: scan for tests that walk the tokens one
// at a time.
func (s *Scanner) Scan() Token {
	var t Token
	s.scan(&t)
	return t
}

// The map-based operator lexer that the tables in scanner.go replaced,
// kept as their oracle: three maps, longest match first.
var op3 = map[string]Kind{
	"**=": DOUBLESTAREQ, "//=": DOUBLESLASHEQ, "<<=": LSHIFTEQ,
	">>=": RSHIFTEQ, "...": ELLIPSIS,
}

var op2 = map[string]Kind{
	"**": DOUBLESTAR, "//": DOUBLESLASH, "<<": LSHIFT, ">>": RSHIFT,
	"<=": LE, ">=": GE, "==": EQ, "!=": NE, "->": ARROW, ":=": WALRUS,
	"+=": PLUSEQ, "-=": MINUSEQ, "*=": STAREQ, "/=": SLASHEQ,
	"%=": PERCENTEQ, "&=": AMPEREQ, "|=": PIPEEQ, "^=": CARETEQ,
	"@=": ATEQ,
}

var op1 = map[byte]Kind{
	'(': LPAREN, ')': RPAREN, '[': LBRACKET, ']': RBRACKET, '{': LBRACE,
	'}': RBRACE, ',': COMMA, ':': COLON, ';': SEMI, '.': DOT, '@': AT,
	'=': ASSIGN, '+': PLUS, '-': MINUS, '*': STAR, '/': SLASH,
	'%': PERCENT, '&': AMPER, '|': PIPE, '^': CARET, '~': TILDE,
	'<': LT, '>': GT,
}

// oracleScanOperator is scanOperator as it was written over the maps.
func oracleScanOperator(s *Scanner) Token {
	pos := s.pos()
	s.sawToken = true
	if s.off+3 <= len(s.src) {
		if k, ok := op3[s.src[s.off:s.off+3]]; ok {
			s.advance()
			s.advance()
			s.advance()
			return Token{Kind: k, Pos: pos}
		}
	}
	if s.off+2 <= len(s.src) {
		if k, ok := op2[s.src[s.off:s.off+2]]; ok {
			s.advance()
			s.advance()
			return Token{Kind: k, Pos: pos}
		}
	}
	c := s.advance()
	if k, ok := op1[c]; ok {
		switch k {
		case LPAREN, LBRACKET, LBRACE:
			s.paren++
		case RPAREN, RBRACKET, RBRACE:
			if s.paren > 0 {
				s.paren--
			}
		}
		return Token{Kind: k, Pos: pos}
	}
	s.errorf(pos, "unexpected character %q", c)
	return Token{Kind: ILLEGAL, Lit: string(c), Pos: pos}
}

// DiffOperatorOracle scans src with Scan and re-lexes every token Scan
// made through scanOperator with the map oracle, from the state Scan
// dispatched from. The token (kind, position, literal), the offset, line
// and bracket depth after it, and the errors it reported must agree; it
// returns the first disagreement. The rest of Scan sees operator lexing
// only through that state, so agreement at every dispatch means that a
// scanner built on the oracle gives the same tokens and errors. It is
// exported for the corpus test, which is in package pytoken_test because
// internal/corpus imports this package.
func DiffOperatorOracle(file, src string) error {
	s := NewScanner(file, src)
	lineStart := []int{0}
	for i := 0; i < len(s.src); i++ {
		if s.src[i] == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	for {
		paren, nerrs := s.paren, len(s.errs)
		t := s.Scan()
		if t.Kind == EOF {
			return nil
		}
		if t.Kind != ILLEGAL && (t.Kind < LPAREN || t.Kind > ATEQ) {
			continue
		}
		bol := lineStart[t.Pos.Line-1]
		o := &Scanner{file: file, src: s.src, off: bol + t.Pos.Col, line: t.Pos.Line, bol: bol, paren: paren}
		ot := oracleScanOperator(o)
		if ot != t || o.off != s.off || o.line != s.line || o.bol != s.bol || o.paren != s.paren ||
			fmt.Sprint(o.errs) != fmt.Sprint(s.errs[nerrs:]) {
			return fmt.Errorf("%s:%s: tables give %v (offset %d, depth %d, errors %v), maps %v (offset %d, depth %d, errors %v)",
				file, t.Pos, t, s.off, s.paren, s.errs[nerrs:], ot, o.off, o.paren, o.errs)
		}
	}
}

// TestOperatorTablesMatchMapOracle holds the operator tables to the map
// oracle on every string of one to three bytes over the operator
// alphabet: each byte an operator holds, '$' (which starts none), a
// blank and a newline.
func TestOperatorTablesMatchMapOracle(t *testing.T) {
	const alphabet = "()[]{},:;.@=+-*/%&|^~<>!$ \n"
	srcs := []string{""}
	for n := 1; n <= 3; n++ {
		var longer []string
		for _, src := range srcs {
			for i := range len(alphabet) {
				longer = append(longer, src+alphabet[i:i+1])
			}
		}
		for _, src := range longer {
			if err := DiffOperatorOracle("ops.py", src); err != nil {
				t.Fatalf("%q: %v", src, err)
			}
		}
		srcs = longer
	}
}

// keywordOracle maps each reserved word's spelling, from kindNames, to
// its kind: the map Lookup once read, kept as the keyword table's oracle.
var keywordOracle = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		m[kindNames[k]] = k
	}
	return m
}()

// oracleLookup is Lookup as it was written over the map.
func oracleLookup(ident string) Kind {
	if k, ok := keywordOracle[ident]; ok {
		return k
	}
	return NAME
}

// DiffKeywordOracle scans src and holds the kind of every identifier and
// keyword token to the map oracle's for its spelling; it returns the
// first disagreement. It is exported for the corpus test, as
// DiffOperatorOracle is.
func DiffKeywordOracle(file, src string) error {
	toks, _ := ScanAll(file, src)
	for _, t := range toks {
		if t.Kind != NAME && !t.Kind.IsKeyword() {
			continue
		}
		if want := oracleLookup(t.Lit); t.Kind != want {
			return fmt.Errorf("%s:%s: %q scans as %v, the map says %v", file, t.Pos, t.Lit, t.Kind, want)
		}
	}
	return nil
}

// TestLookupMatchesMapOracle holds Lookup to the map on every keyword;
// on the soft and former keywords, which are names; on every lower-case
// string of up to four bytes; on every lower-case first and last byte
// around a filler middle of each length up to six and around each
// keyword's middle, so on every table slot a lower-case word of two to
// eight bytes reaches; and on every one-byte change of a keyword.
func TestLookupMatchesMapOracle(t *testing.T) {
	check := func(s string) {
		if got, want := Lookup(s), oracleLookup(s); got != want {
			t.Fatalf("Lookup(%q) = %v, the map says %v", s, got, want)
		}
	}
	for w := range keywordOracle {
		check(w)
	}
	for _, w := range []string{"match", "case", "type", "_", "print", "exec", "", "a", "self", "continues", "nonlocals"} {
		if Lookup(w) != NAME {
			t.Errorf("Lookup(%q) = %v, want NAME", w, Lookup(w))
		}
	}
	const lower = "abcdefghijklmnopqrstuvwxyz"
	words := []string{""}
	for n := 1; n <= 4; n++ {
		var longer []string
		for _, w := range words {
			for i := range len(lower) {
				longer = append(longer, w+lower[i:i+1])
			}
		}
		for _, w := range longer {
			check(w)
		}
		words = longer
	}
	middles := []string{"", "x", "xx", "xxx", "xxxx", "xxxxx", "xxxxxx"}
	for w := range keywordOracle {
		if len(w) > 2 {
			middles = append(middles, w[1:len(w)-1])
		}
		for i := range len(w) {
			for c := range 128 {
				check(w[:i] + string(rune(c)) + w[i+1:])
			}
		}
	}
	for _, mid := range middles {
		for f := range len(lower) {
			for l := range len(lower) {
				check(lower[f:f+1] + mid + lower[l:l+1])
			}
		}
	}
}

// kinds collects the token kinds for src, excluding the trailing EOF.
func kinds(t *testing.T, src string) []Kind {
	t.Helper()
	toks, err := ScanAll("test.py", src)
	if err != nil {
		t.Fatalf("ScanAll(%q): %v", src, err)
	}
	var ks []Kind
	for _, tok := range toks {
		if tok.Kind == EOF {
			break
		}
		ks = append(ks, tok.Kind)
	}
	return ks
}

func kindsEqual(a, b []Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSimpleStatement(t *testing.T) {
	got := kinds(t, "x = 1\n")
	want := []Kind{NAME, ASSIGN, NUMBER, NEWLINE}
	if !kindsEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestIndentDedent(t *testing.T) {
	src := "def f():\n    x = 1\n    return x\ny = 2\n"
	got := kinds(t, src)
	want := []Kind{
		KwDef, NAME, LPAREN, RPAREN, COLON, NEWLINE,
		INDENT, NAME, ASSIGN, NUMBER, NEWLINE,
		KwReturn, NAME, NEWLINE,
		DEDENT, NAME, ASSIGN, NUMBER, NEWLINE,
	}
	if !kindsEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestNestedIndentationDedentsAtEOF(t *testing.T) {
	src := "if a:\n  if b:\n    c"
	got := kinds(t, src)
	want := []Kind{
		KwIf, NAME, COLON, NEWLINE,
		INDENT, KwIf, NAME, COLON, NEWLINE,
		INDENT, NAME, NEWLINE,
		DEDENT, DEDENT,
	}
	if !kindsEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestBlankAndCommentLinesIgnored(t *testing.T) {
	src := "x = 1\n\n# comment\n   \ny = 2\n"
	got := kinds(t, src)
	want := []Kind{NAME, ASSIGN, NUMBER, NEWLINE, NAME, ASSIGN, NUMBER, NEWLINE}
	if !kindsEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestImplicitLineJoining(t *testing.T) {
	src := "f(a,\n  b,\n  c)\n"
	got := kinds(t, src)
	want := []Kind{NAME, LPAREN, NAME, COMMA, NAME, COMMA, NAME, RPAREN, NEWLINE}
	if !kindsEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestExplicitLineJoining(t *testing.T) {
	src := "x = 1 + \\\n    2\n"
	got := kinds(t, src)
	want := []Kind{NAME, ASSIGN, NUMBER, PLUS, NUMBER, NEWLINE}
	if !kindsEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestStringLiterals(t *testing.T) {
	cases := []struct {
		src string
		lit string
	}{
		{`s = 'abc'` + "\n", `'abc'`},
		{`s = "a\"b"` + "\n", `"a\"b"`},
		{"s = '''multi\nline'''\n", "'''multi\nline'''"},
		{`s = r'\d+'` + "\n", `r'\d+'`},
		{`s = f"hello {name}"` + "\n", `f"hello {name}"`},
		{`s = b'bytes'` + "\n", `b'bytes'`},
		{`s = rb'\x00'` + "\n", `rb'\x00'`},
	}
	for _, c := range cases {
		toks, err := ScanAll("test.py", c.src)
		if err != nil {
			t.Errorf("ScanAll(%q): %v", c.src, err)
			continue
		}
		if toks[2].Kind != STRING || toks[2].Lit != c.lit {
			t.Errorf("src %q: got %v, want STRING(%q)", c.src, toks[2], c.lit)
		}
	}
}

func TestNumberLiterals(t *testing.T) {
	for _, lit := range []string{
		"0", "42", "1_000_000", "3.14", "10.", "1e5", "2.5e-3", "0x1F",
		"0o755", "0b1010", "3j", "2.5J",
	} {
		toks, err := ScanAll("test.py", "x = "+lit+"\n")
		if err != nil {
			t.Fatalf("ScanAll(%q): %v", lit, err)
		}
		if toks[2].Kind != NUMBER || toks[2].Lit != lit {
			t.Errorf("literal %q: got %v", lit, toks[2])
		}
	}
}

func TestOperators(t *testing.T) {
	src := "a **= b // c << d != e := f -> g ... @ h\n"
	got := kinds(t, src)
	want := []Kind{
		NAME, DOUBLESTAREQ, NAME, DOUBLESLASH, NAME, LSHIFT, NAME, NE,
		NAME, WALRUS, NAME, ARROW, NAME, ELLIPSIS, AT, NAME, NEWLINE,
	}
	if !kindsEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestKeywordsRecognized(t *testing.T) {
	for word, kind := range keywordOracle {
		toks, err := ScanAll("test.py", word+"\n")
		if err != nil {
			t.Fatalf("ScanAll(%q): %v", word, err)
		}
		if toks[0].Kind != kind {
			t.Errorf("keyword %q: got kind %v, want %v", word, toks[0].Kind, kind)
		}
	}
}

func TestKeywordPrefixIsName(t *testing.T) {
	// Identifiers that merely start with a keyword must stay NAMEs.
	for _, w := range []string{"iffy", "format", "classes", "delta", "delete", "inner"} {
		toks, _ := ScanAll("test.py", w+"\n")
		if toks[0].Kind != NAME || toks[0].Lit != w {
			t.Errorf("%q: got %v, want NAME(%q)", w, toks[0], w)
		}
	}
}

func TestPositions(t *testing.T) {
	toks, err := ScanAll("test.py", "x = 1\ny = 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{Line: 1, Col: 0}) {
		t.Errorf("x at %v, want 1:1", toks[0].Pos)
	}
	if toks[4].Pos != (Pos{Line: 2, Col: 0}) {
		t.Errorf("y at %v, want 2:1", toks[4].Pos)
	}
	if toks[6].Pos != (Pos{Line: 2, Col: 4}) {
		t.Errorf("2 at %v, want 2:5", toks[6].Pos)
	}
}

func TestTabIndentation(t *testing.T) {
	src := "if a:\n\tb = 1\n\tc = 2\nd = 3\n"
	got := kinds(t, src)
	want := []Kind{
		KwIf, NAME, COLON, NEWLINE,
		INDENT, NAME, ASSIGN, NUMBER, NEWLINE,
		NAME, ASSIGN, NUMBER, NEWLINE,
		DEDENT, NAME, ASSIGN, NUMBER, NEWLINE,
	}
	if !kindsEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestUnterminatedStringIsError(t *testing.T) {
	_, err := ScanAll("test.py", "s = 'oops\n")
	if err == nil {
		t.Error("expected error for unterminated string")
	}
}

func TestBadDedentIsError(t *testing.T) {
	_, err := ScanAll("test.py", "if a:\n    b\n  c\n")
	if err == nil {
		t.Error("expected error for inconsistent dedent")
	}
}

// TestNestingLimits: CPython's tokenizer limits, 200 nested brackets and
// 100 levels of indentation, are where the scanner stops too: past either
// the input ends at the offending token, with one error.
func TestNestingLimits(t *testing.T) {
	indented := func(levels int) string {
		var b strings.Builder
		for i := 0; i < levels; i++ {
			fmt.Fprintf(&b, "%sif a:\n", strings.Repeat(" ", i))
		}
		fmt.Fprintf(&b, "%spass\n", strings.Repeat(" ", levels))
		return b.String()
	}
	cases := []struct{ src, err string }{
		{"x = " + strings.Repeat("[", 200) + strings.Repeat("]", 200) + "\n", ""},
		{"x = " + strings.Repeat("{", 201) + strings.Repeat("}", 201) + "\n", "t.py:1:205: too many nested parentheses"},
		{indented(100), ""},
		{indented(101), "t.py:102:102: too many levels of indentation"},
	}
	for i, tc := range cases {
		_, err := ScanAll("t.py", tc.src)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("case %d: unexpected error %v", i, err)
		case tc.err != "" && (err == nil || err.Error() != tc.err):
			t.Errorf("case %d: error %v, want %q", i, err, tc.err)
		}
	}
}

func TestUnexpectedCharacterIsError(t *testing.T) {
	toks, err := ScanAll("test.py", "a ? b\n")
	if err == nil {
		t.Error("expected error for '?'")
	}
	found := false
	for _, tok := range toks {
		if tok.Kind == ILLEGAL {
			found = true
		}
	}
	if !found {
		t.Error("expected an ILLEGAL token")
	}
}

func TestCRLFInput(t *testing.T) {
	got := kinds(t, "x = 1\r\ny = 2\r\n")
	want := []Kind{NAME, ASSIGN, NUMBER, NEWLINE, NAME, ASSIGN, NUMBER, NEWLINE}
	if !kindsEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestDecoratorLine(t *testing.T) {
	src := "@app.route('/x')\ndef f():\n    pass\n"
	got := kinds(t, src)
	want := []Kind{
		AT, NAME, DOT, NAME, LPAREN, STRING, RPAREN, NEWLINE,
		KwDef, NAME, LPAREN, RPAREN, COLON, NEWLINE,
		INDENT, KwPass, NEWLINE, DEDENT,
	}
	if !kindsEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestScanTerminates is a property test: the scanner must reach EOF in a
// bounded number of steps for arbitrary input, never looping forever.
func TestScanTerminates(t *testing.T) {
	f := func(src string) bool {
		sc := NewScanner("fuzz.py", src)
		for i := 0; i < 4*len(src)+64; i++ {
			if sc.Scan().Kind == EOF {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBalancedIndents is a property test: across any input built of valid
// lines, the number of INDENT tokens equals the number of DEDENT tokens by
// the time EOF is reached.
func TestBalancedIndents(t *testing.T) {
	f := func(depths []uint8) bool {
		var b strings.Builder
		for i, d := range depths {
			b.WriteString(strings.Repeat(" ", int(d%8)))
			if i%3 == 0 {
				b.WriteString("if x:\n")
			} else {
				b.WriteString("y = 1\n")
			}
		}
		toks, _ := ScanAll("fuzz.py", b.String())
		bal := 0
		for _, tok := range toks {
			switch tok.Kind {
			case INDENT:
				bal++
			case DEDENT:
				bal--
			}
		}
		return bal == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmptyAndWhitespaceOnlyInputs(t *testing.T) {
	for _, src := range []string{"", "\n", "   \n\t\n", "# just a comment\n"} {
		toks, err := ScanAll("test.py", src)
		if err != nil {
			t.Errorf("ScanAll(%q): %v", src, err)
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != EOF {
			t.Errorf("ScanAll(%q): missing EOF, got %v", src, toks)
		}
	}
}
