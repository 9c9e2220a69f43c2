package pyparse

import (
	"strings"

	"seldon/internal/pyast"
	"seldon/internal/pytoken"
)

// parseFString pushes the parsed {…} interpolations of an f-string token
// on the expression stack, so information flows from the interpolated
// expressions into the string (the f"SELECT {term}" idiom). Literals
// without interpolations push nothing, and fragments that fail to parse
// degrade gracefully. A fragment's nodes sit where its text sits in the
// file, on the token's line or, in a literal that spans lines, a later
// one.
func (p *parser) parseFString(tok pytoken.Token) {
	for _, frag := range fstringFragments(tok.Lit) {
		before := tok.Lit[:frag.at]
		at := pytoken.Pos{Line: tok.Pos.Line + strings.Count(before, "\n"), Col: tok.Pos.Col + frag.at}
		if nl := strings.LastIndexByte(before, '\n'); nl >= 0 {
			at.Col = frag.at - nl - 1
		}
		toks := mustScan(frag.expr)
		for i := range toks {
			if toks[i].Pos.Line == 1 {
				toks[i].Pos.Col += at.Col
			}
			toks[i].Pos.Line += at.Line - 1
		}
		// The fragment's nodes join the enclosing module, so they come
		// from the same scratch; its tokens are its own.
		sub := &parser{file: "<f-string>", toks: toks, depth: p.depth, sc: p.sc}
		if expr := sub.parseFragment(); expr != nil {
			p.sc.exprs.push(expr)
		}
	}
}

// parseFragment parses a single expression, returning nil on any error.
func (p *parser) parseFragment() (expr pyast.Expr) {
	m := p.marks()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			p.unwind(m)
			expr = nil
		}
	}()
	e := p.parseExpr()
	if !p.at(pytoken.NEWLINE) && !p.at(pytoken.EOF) {
		return nil // trailing garbage: not a clean expression
	}
	return e
}

func mustScan(src string) []pytoken.Token {
	toks, _ := pytoken.ScanAll("<f-string>", src)
	return toks
}

// isFStringLit reports whether a STRING literal carries an f prefix.
func isFStringLit(lit string) bool {
	for i := 0; i < len(lit) && i < 2; i++ {
		switch lit[i] {
		case 'f', 'F':
			return true
		case '\'', '"':
			return false
		}
	}
	return false
}

// fragment is the expression text of one {…} interpolation and its byte
// offset in the literal.
type fragment struct {
	expr string
	at   int
}

// fstringFragments extracts the expression texts of {…} interpolations
// from an f-string literal (prefix and quotes included), each field's
// expression followed by those of the fields nested in its format spec
// ({x:{width}}). Conversions ({x!r}) and {{ }} escapes are handled.
func fstringFragments(lit string) []fragment {
	if !isFStringLit(lit) {
		return nil
	}
	body, from := stripQuotes(lit)
	var out []fragment
	i := 0
	for i < len(body) {
		c := body[i]
		if c == '{' {
			if i+1 < len(body) && body[i+1] == '{' {
				i += 2 // literal {{
				continue
			}
			n := len(out)
			var ok bool
			if out, i, ok = scanField(body, i+1, out); !ok {
				out = out[:n] // unterminated interpolation: ignore it
			}
			continue
		}
		if c == '}' && i+1 < len(body) && body[i+1] == '}' {
			i += 2 // literal }}
			continue
		}
		i++
	}
	for k := range out {
		out[k].at += from
	}
	return out
}

// scanField consumes a replacement field from just after its '{' to the
// matching '}', appending its expression (conversion and format spec
// stripped) and then the fields nested in its format spec. It returns the
// index just past the closing brace, and false when the field is not
// closed.
func scanField(body string, start int, out []fragment) ([]fragment, int, bool) {
	depth := 0 // nesting of (, [, { inside the expression
	var quote byte
	for i := start; i < len(body); i++ {
		c := body[i]
		if quote != 0 {
			if c == '\\' {
				i++
			} else if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '\'', '"':
			quote = c
		case '(', '[', '{':
			depth++
		case ')', ']':
			depth--
		case '}':
			if depth == 0 {
				return appendExpr(out, body, start, i), i + 1, true
			}
			depth--
		case ':':
			if depth == 0 {
				return scanSpec(body, i+1, appendExpr(out, body, start, i))
			}
		case '!':
			// Conversion marker: !s, !r, !a directly before } or :.
			if depth == 0 && i+1 < len(body) && strings.IndexByte("sra", body[i+1]) >= 0 &&
				(i+2 >= len(body) || body[i+2] == '}' || body[i+2] == ':') {
				out = appendExpr(out, body, start, i)
				if i+2 < len(body) && body[i+2] == ':' {
					return scanSpec(body, i+3, out)
				}
				return out, i + 3, i+2 < len(body)
			}
		}
	}
	return out, len(body), false
}

// scanSpec consumes a format spec from start to its field's closing
// brace, appending the fields nested in it, each at its own offset.
func scanSpec(body string, start int, out []fragment) ([]fragment, int, bool) {
	for i := start; i < len(body); {
		switch body[i] {
		case '{':
			var ok bool
			if out, i, ok = scanField(body, i+1, out); !ok {
				return out, i, false
			}
		case '}':
			return out, i + 1, true
		default:
			i++
		}
	}
	return out, len(body), false
}

// appendExpr appends body[start:end], spaces trimmed, as a fragment
// unless it is empty. end is where the field's expression stops at depth
// 0 — its closing brace, conversion or format spec — so a last '=' there
// that is not the end of ==, !=, <= or >= makes the field
// self-documenting ({x=}, {x = !r}): it is dropped, and x is the
// expression.
func appendExpr(out []fragment, body string, start, end int) []fragment {
	expr := strings.TrimSpace(body[start:end])
	if n := len(expr); n > 0 && expr[n-1] == '=' && (n == 1 || !strings.ContainsRune("=!<>", rune(expr[n-2]))) {
		expr = strings.TrimSpace(expr[:n-1])
	}
	if expr == "" {
		return out
	}
	return append(out, fragment{expr, start + strings.Index(body[start:end], expr)})
}

// stripQuotes removes the string prefix and the surrounding quotes,
// returning what is left and the index it starts at.
func stripQuotes(lit string) (string, int) {
	i := 0
	for i < len(lit) && lit[i] != '\'' && lit[i] != '"' {
		i++
	}
	if i >= len(lit) {
		return "", i
	}
	q := lit[i]
	rest := lit[i:]
	if len(rest) >= 6 && rest[1] == q && rest[2] == q {
		if strings.HasSuffix(rest, strings.Repeat(string(q), 3)) {
			return rest[3 : len(rest)-3], i + 3
		}
		return rest[3:], i + 3
	}
	if len(rest) >= 2 && rest[len(rest)-1] == q {
		return rest[1 : len(rest)-1], i + 1
	}
	return rest[1:], i + 1
}
