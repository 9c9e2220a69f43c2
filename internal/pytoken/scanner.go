package pytoken

import (
	"fmt"
	"strings"
)

// ScanError describes a lexical error with its source position.
type ScanError struct {
	File string
	Pos  Pos
	Msg  string
}

func (e *ScanError) Error() string {
	return fmt.Sprintf("%s:%s: %s", e.File, e.Pos, e.Msg)
}

// Scanner converts Python source text into a stream of tokens.
//
// A zero Scanner is not usable; call NewScanner or Init. Scan returns EOF
// forever once the input is exhausted. Lexical errors are reported both via
// an ILLEGAL token and through Err, and the scanner recovers by skipping the
// offending byte so a parse can proceed for error reporting.
type Scanner struct {
	file string
	src  string

	off   int // byte offset of next unread byte
	line  int // 1-based current line
	bol   int // offset of beginning of current line
	paren int // depth of open (, [, {

	indents     []int   // indentation stack; always starts with 0
	pending     []Token // queued INDENT/DEDENT tokens; pending[head:] are undelivered
	head        int
	atLineStart bool // true when the next scan must measure indentation
	errs        []error
	sawToken    bool // a non-NEWLINE token was produced on the current logical line
}

// NewScanner returns a Scanner over src. file is used in error messages only.
func NewScanner(file, src string) *Scanner {
	s := new(Scanner)
	s.Init(file, src)
	return s
}

// Init points s at a new input, keeping the capacity of its indentation
// and pending-token stacks so one Scanner can lex many files without
// reallocating them. Tokens and errors already returned stay valid: they
// reference the source text and file name, never the scanner.
func (s *Scanner) Init(file, src string) {
	// Normalize CRLF and lone CR so column bookkeeping stays simple; the
	// two rewriting passes run only for the rare input that has a CR.
	if strings.IndexByte(src, '\r') >= 0 {
		src = strings.ReplaceAll(src, "\r\n", "\n")
		src = strings.ReplaceAll(src, "\r", "\n")
	}
	*s = Scanner{
		file:        file,
		src:         src,
		line:        1,
		indents:     append(s.indents[:0], 0),
		pending:     s.pending[:0],
		atLineStart: true,
	}
}

// Err returns the accumulated lexical errors, if any.
func (s *Scanner) Err() error {
	if len(s.errs) == 0 {
		return nil
	}
	msgs := make([]string, len(s.errs))
	for i, e := range s.errs {
		msgs[i] = e.Error()
	}
	return fmt.Errorf("%s", strings.Join(msgs, "\n"))
}

func (s *Scanner) errorf(p Pos, format string, args ...any) {
	s.errs = append(s.errs, &ScanError{File: s.file, Pos: p, Msg: fmt.Sprintf(format, args...)})
}

func (s *Scanner) pos() Pos { return Pos{Line: s.line, Col: s.off - s.bol} }

func (s *Scanner) peek() byte {
	if s.off < len(s.src) {
		return s.src[s.off]
	}
	return 0
}

func (s *Scanner) peekAt(n int) byte {
	if s.off+n < len(s.src) {
		return s.src[s.off+n]
	}
	return 0
}

func (s *Scanner) advance() byte {
	c := s.src[s.off]
	s.off++
	if c == '\n' {
		s.line++
		s.bol = s.off
	}
	return c
}

// Scan returns the next token. At end of input it first drains pending
// DEDENTs (and a final NEWLINE if the last line lacked one), then returns EOF.
func (s *Scanner) Scan() Token {
	for {
		if s.head < len(s.pending) {
			t := s.pending[s.head]
			if s.head++; s.head == len(s.pending) {
				s.pending, s.head = s.pending[:0], 0
			}
			return t
		}
		if s.atLineStart && s.paren == 0 {
			if done := s.handleIndentation(); done {
				continue // pending tokens were queued
			}
		}
		s.skipSpacesAndComments()
		if s.off >= len(s.src) {
			return s.finish()
		}
		c := s.peek()
		switch {
		case c == '\n':
			s.advance()
			if s.paren > 0 {
				continue // implicit line joining
			}
			s.atLineStart = true
			if s.sawToken {
				s.sawToken = false
				return Token{Kind: NEWLINE, Pos: Pos{Line: s.line - 1, Col: 0}}
			}
			continue // blank line: no NEWLINE token
		case c == '\\' && s.peekAt(1) == '\n':
			s.advance()
			s.advance()
			continue // explicit line joining
		case isIdentStart(c):
			return s.scanNameOrString()
		case isDigit(c) || (c == '.' && isDigit(s.peekAt(1))):
			return s.scanNumber()
		case c == '\'' || c == '"':
			return s.scanString("")
		default:
			return s.scanOperator()
		}
	}
}

// finish emits the shutdown sequence: NEWLINE (if a statement is open),
// all outstanding DEDENTs, then EOF.
func (s *Scanner) finish() Token {
	if s.sawToken {
		s.sawToken = false
		return Token{Kind: NEWLINE, Pos: s.pos()}
	}
	if len(s.indents) > 1 {
		s.indents = s.indents[:len(s.indents)-1]
		return Token{Kind: DEDENT, Pos: s.pos()}
	}
	return Token{Kind: EOF, Pos: s.pos()}
}

// handleIndentation measures leading whitespace on a fresh logical line and
// queues INDENT/DEDENT tokens. It returns true if tokens were queued (the
// caller should loop to deliver them). Blank and comment-only lines are
// skipped without affecting the indentation stack, per the Python grammar.
func (s *Scanner) handleIndentation() bool {
	for {
		col := 0
		i := s.off
		for i < len(s.src) {
			switch s.src[i] {
			case ' ':
				col++
			case '\t':
				col += 8 - col%8
			case '\f':
				col = 0
			default:
				goto measured
			}
			i++
		}
	measured:
		if i >= len(s.src) || s.src[i] == '\n' || s.src[i] == '#' {
			// Blank or comment-only line: consume it and re-measure.
			for s.off < len(s.src) && s.src[s.off] != '\n' {
				s.advance()
			}
			if s.off < len(s.src) {
				s.advance() // the newline
				continue
			}
			s.atLineStart = false
			return false
		}
		// Position at first non-whitespace byte.
		for s.off < i {
			s.advance()
		}
		s.atLineStart = false
		cur := s.indents[len(s.indents)-1]
		switch {
		case col > cur:
			s.indents = append(s.indents, col)
			s.pending = append(s.pending, Token{Kind: INDENT, Pos: s.pos()})
			return true
		case col < cur:
			for len(s.indents) > 1 && s.indents[len(s.indents)-1] > col {
				s.indents = s.indents[:len(s.indents)-1]
				s.pending = append(s.pending, Token{Kind: DEDENT, Pos: s.pos()})
			}
			if s.indents[len(s.indents)-1] != col {
				s.errorf(s.pos(), "unindent does not match any outer indentation level")
			}
			return true
		default:
			return false
		}
	}
}

func (s *Scanner) skipSpacesAndComments() {
	for s.off < len(s.src) {
		switch s.peek() {
		case ' ', '\t', '\f':
			s.advance()
		case '#':
			for s.off < len(s.src) && s.peek() != '\n' {
				s.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c >= 0x80
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scanNameOrString scans an identifier, a keyword, or a prefixed string
// literal such as r"..." or f'...'.
func (s *Scanner) scanNameOrString() Token {
	start := s.off
	pos := s.pos()
	for s.off < len(s.src) && isIdentCont(s.peek()) {
		s.advance()
	}
	word := s.src[start:s.off]
	if len(word) <= 2 && (s.peek() == '\'' || s.peek() == '"') && isStringPrefix(word) {
		return s.scanString(word)
	}
	s.sawToken = true
	if k := Lookup(word); k != NAME {
		return Token{Kind: k, Lit: word, Pos: pos}
	}
	return Token{Kind: NAME, Lit: word, Pos: pos}
}

func isStringPrefix(w string) bool {
	switch strings.ToLower(w) {
	case "r", "b", "u", "f", "rb", "br", "rf", "fr":
		return true
	}
	return false
}

// scanString scans a single- or triple-quoted string literal. The returned
// Lit includes the prefix and quotes verbatim: the prefix sits directly
// before the opening quote, so a terminated literal is one substring of
// the source.
func (s *Scanner) scanString(prefix string) Token {
	pos := s.pos()
	pos.Col -= len(prefix)
	begin := s.off - len(prefix)
	s.sawToken = true
	quote := s.advance()
	triple := false
	if s.peek() == quote && s.peekAt(1) == quote {
		s.advance()
		s.advance()
		triple = true
	}
	start := s.off
	raw := strings.ContainsAny(strings.ToLower(prefix), "r")
	for s.off < len(s.src) {
		c := s.peek()
		if c == '\\' && !raw && s.off+1 < len(s.src) {
			s.advance()
			s.advance()
			continue
		}
		if c == '\\' && raw && s.off+1 < len(s.src) {
			// In raw strings a backslash still escapes the quote for
			// the purpose of finding the literal's end.
			s.advance()
			s.advance()
			continue
		}
		if c == quote {
			if !triple {
				s.advance()
				return Token{Kind: STRING, Lit: s.src[begin:s.off], Pos: pos}
			}
			if s.peekAt(1) == quote && s.peekAt(2) == quote {
				s.advance()
				s.advance()
				s.advance()
				return Token{Kind: STRING, Lit: s.src[begin:s.off], Pos: pos}
			}
			s.advance()
			continue
		}
		if c == '\n' && !triple {
			s.errorf(pos, "unterminated string literal")
			return Token{Kind: STRING, Lit: s.src[begin:s.off], Pos: pos}
		}
		s.advance()
	}
	s.errorf(pos, "unterminated string literal at end of file")
	return Token{Kind: STRING, Lit: prefix + string(quote) + s.src[start:], Pos: pos}
}

// scanNumber scans integer, float, imaginary, hex, octal, and binary
// literals, including underscores as digit separators.
func (s *Scanner) scanNumber() Token {
	pos := s.pos()
	start := s.off
	s.sawToken = true
	if s.peek() == '0' && (s.peekAt(1) == 'x' || s.peekAt(1) == 'X' ||
		s.peekAt(1) == 'o' || s.peekAt(1) == 'O' ||
		s.peekAt(1) == 'b' || s.peekAt(1) == 'B') {
		s.advance()
		s.advance()
		for isHexDigit(s.peek()) || s.peek() == '_' {
			s.advance()
		}
		return Token{Kind: NUMBER, Lit: s.src[start:s.off], Pos: pos}
	}
	digits := func() {
		for isDigit(s.peek()) || s.peek() == '_' {
			s.advance()
		}
	}
	digits()
	if s.peek() == '.' && isDigit(s.peekAt(1)) || s.peek() == '.' && !isIdentStart(s.peekAt(1)) && s.peekAt(1) != '.' {
		s.advance()
		digits()
	}
	if s.peek() == 'e' || s.peek() == 'E' {
		if n := s.peekAt(1); isDigit(n) || (n == '+' || n == '-') && isDigit(s.peekAt(2)) {
			s.advance()
			if s.peek() == '+' || s.peek() == '-' {
				s.advance()
			}
			digits()
		}
	}
	if s.peek() == 'j' || s.peek() == 'J' {
		s.advance()
	}
	return Token{Kind: NUMBER, Lit: s.src[start:s.off], Pos: pos}
}

func isHexDigit(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// operator tables, longest match first.
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

func (s *Scanner) scanOperator() Token {
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

// ScanAll tokenizes the entire input and returns the tokens up to and
// including EOF, plus any lexical errors encountered.
func ScanAll(file, src string) ([]Token, error) {
	return NewScanner(file, src).ScanAllInto(nil)
}

// ScanAllInto scans the rest of the input, appending the tokens up to and
// including EOF into buf[:0] — the path of callers that tokenize in a hot
// loop with a reused Scanner and buffer. The returned slice aliases buf
// when it fits; tokens from a previous scan into the same buffer are
// overwritten. A buffer too small for a typical token density (one token
// per three to four source bytes) is replaced by one sized for the input
// rather than grown by doubling.
func (s *Scanner) ScanAllInto(buf []Token) ([]Token, error) {
	toks := buf[:0]
	if want := len(s.src)/3 + 16; cap(toks) < want {
		toks = make([]Token, 0, want)
	}
	for {
		t := s.Scan()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, s.Err()
		}
	}
}
