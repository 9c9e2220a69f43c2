// Package pytoken implements a lexical scanner for Python source code.
//
// The scanner follows the CPython tokenizer's observable behaviour for the
// language subset Seldon analyzes: it is indentation-aware (emitting INDENT
// and DEDENT tokens), joins lines implicitly inside bracket pairs and
// explicitly after a trailing backslash, and recognizes the full set of
// Python 3 operators, keywords, string prefixes, and numeric literal forms.
package pytoken

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Keyword kinds are a contiguous range so IsKeyword can test
// membership with two comparisons.
const (
	EOF Kind = iota
	ILLEGAL
	NEWLINE // logical end of statement
	INDENT
	DEDENT

	NAME
	NUMBER
	STRING // includes byte strings and f-strings; prefix preserved in Lit

	// Operators and delimiters.
	LPAREN        // (
	RPAREN        // )
	LBRACKET      // [
	RBRACKET      // ]
	LBRACE        // {
	RBRACE        // }
	COMMA         // ,
	COLON         // :
	SEMI          // ;
	DOT           // .
	ELLIPSIS      // ...
	ARROW         // ->
	AT            // @
	ASSIGN        // =
	WALRUS        // :=
	PLUS          // +
	MINUS         // -
	STAR          // *
	DOUBLESTAR    // **
	SLASH         // /
	DOUBLESLASH   // //
	PERCENT       // %
	AMPER         // &
	PIPE          // |
	CARET         // ^
	TILDE         // ~
	LSHIFT        // <<
	RSHIFT        // >>
	LT            // <
	GT            // >
	LE            // <=
	GE            // >=
	EQ            // ==
	NE            // !=
	PLUSEQ        // +=
	MINUSEQ       // -=
	STAREQ        // *=
	SLASHEQ       // /=
	DOUBLESLASHEQ // //=
	PERCENTEQ     // %=
	AMPEREQ       // &=
	PIPEEQ        // |=
	CARETEQ       // ^=
	LSHIFTEQ      // <<=
	RSHIFTEQ      // >>=
	DOUBLESTAREQ  // **=
	ATEQ          // @=

	keywordBeg
	KwFalse
	KwNone
	KwTrue
	KwAnd
	KwAs
	KwAssert
	KwAsync
	KwAwait
	KwBreak
	KwClass
	KwContinue
	KwDef
	KwDel
	KwElif
	KwElse
	KwExcept
	KwFinally
	KwFor
	KwFrom
	KwGlobal
	KwIf
	KwImport
	KwIn
	KwIs
	KwLambda
	KwNonlocal
	KwNot
	KwOr
	KwPass
	KwRaise
	KwReturn
	KwTry
	KwWhile
	KwWith
	KwYield
	keywordEnd
)

var kindNames = [...]string{
	EOF: "EOF", ILLEGAL: "ILLEGAL", NEWLINE: "NEWLINE", INDENT: "INDENT",
	DEDENT: "DEDENT", NAME: "NAME", NUMBER: "NUMBER", STRING: "STRING",
	LPAREN: "(", RPAREN: ")", LBRACKET: "[", RBRACKET: "]", LBRACE: "{",
	RBRACE: "}", COMMA: ",", COLON: ":", SEMI: ";", DOT: ".",
	ELLIPSIS: "...", ARROW: "->", AT: "@", ASSIGN: "=", WALRUS: ":=",
	PLUS: "+", MINUS: "-", STAR: "*", DOUBLESTAR: "**", SLASH: "/",
	DOUBLESLASH: "//", PERCENT: "%", AMPER: "&", PIPE: "|", CARET: "^",
	TILDE: "~", LSHIFT: "<<", RSHIFT: ">>", LT: "<", GT: ">", LE: "<=",
	GE: ">=", EQ: "==", NE: "!=", PLUSEQ: "+=", MINUSEQ: "-=",
	STAREQ: "*=", SLASHEQ: "/=", DOUBLESLASHEQ: "//=", PERCENTEQ: "%=",
	AMPEREQ: "&=", PIPEEQ: "|=", CARETEQ: "^=", LSHIFTEQ: "<<=",
	RSHIFTEQ: ">>=", DOUBLESTAREQ: "**=", ATEQ: "@=",
	KwFalse: "False", KwNone: "None", KwTrue: "True", KwAnd: "and",
	KwAs: "as", KwAssert: "assert", KwAsync: "async", KwAwait: "await",
	KwBreak: "break", KwClass: "class", KwContinue: "continue",
	KwDef: "def", KwDel: "del", KwElif: "elif", KwElse: "else",
	KwExcept: "except", KwFinally: "finally", KwFor: "for", KwFrom: "from",
	KwGlobal: "global", KwIf: "if", KwImport: "import", KwIn: "in",
	KwIs: "is", KwLambda: "lambda", KwNonlocal: "nonlocal", KwNot: "not",
	KwOr: "or", KwPass: "pass", KwRaise: "raise", KwReturn: "return",
	KwTry: "try", KwWhile: "while", KwWith: "with", KwYield: "yield",
}

// String returns a human-readable name for the kind: the literal spelling
// for operators and keywords, an upper-case class name otherwise.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsKeyword reports whether k is a reserved word.
func (k Kind) IsKeyword() bool { return k > keywordBeg && k < keywordEnd }

// keywordSlots holds each reserved word's kind at keywordSlot(word), no
// two of the 35 on one slot (TestLookupMatchesMapOracle holds it to a map).
var keywordSlots = func() (t [128]Kind) {
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		t[keywordSlot(kindNames[k])] = k
	}
	return t
}()

func keywordSlot(w string) int { return (int(w[0]) + 11*int(w[len(w)-1]) + len(w)) & 127 }

// Lookup returns the keyword kind for an identifier spelling, or NAME.
// Reserved words are two to eight bytes long.
func Lookup(ident string) Kind {
	if len(ident) >= 2 && len(ident) <= 8 {
		if k := keywordSlots[keywordSlot(ident)]; k.IsKeyword() && kindNames[k] == ident {
			return k
		}
	}
	return NAME
}

// Pos is a source position (1-based line, 0-based column in bytes).
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col+1) }

// Token is a single lexical token with its source position.
type Token struct {
	Kind Kind
	Lit  string // source text of a NAME, NUMBER, STRING, keyword or ILLEGAL byte; empty otherwise
	Pos  Pos
}

func (t Token) String() string {
	if t.Lit != "" {
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	}
	return t.Kind.String()
}
