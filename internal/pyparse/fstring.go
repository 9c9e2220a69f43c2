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
// degrade gracefully.
func (p *parser) parseFString(tok pytoken.Token) {
	for _, frag := range fstringFragments(tok.Lit) {
		// The fragment's nodes join the enclosing module, so they come
		// from the same scratch; its tokens are its own.
		sub := &parser{file: "<f-string>", toks: mustScan(frag), depth: p.depth, sc: p.sc}
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

// fstringFragments extracts the expression texts of {…} interpolations
// from an f-string literal (prefix and quotes included). Formatting specs
// ({x:>10}), conversions ({x!r}), and {{ }} escapes are handled.
func fstringFragments(lit string) []string {
	if !isFStringLit(lit) {
		return nil
	}
	body := stripQuotes(lit)
	var out []string
	i := 0
	for i < len(body) {
		c := body[i]
		if c == '{' {
			if i+1 < len(body) && body[i+1] == '{' {
				i += 2 // literal {{
				continue
			}
			frag, next := scanInterpolation(body, i+1)
			if frag != "" {
				out = append(out, frag)
			}
			i = next
			continue
		}
		if c == '}' && i+1 < len(body) && body[i+1] == '}' {
			i += 2 // literal }}
			continue
		}
		i++
	}
	return out
}

// scanInterpolation consumes from just after '{' to the matching '}',
// returning the expression text (format spec and conversion stripped) and
// the index just past the closing brace.
func scanInterpolation(body string, start int) (string, int) {
	depth := 0 // nesting of (, [, { inside the expression
	exprEnd := -1
	var quote byte
	i := start
	for i < len(body) {
		c := body[i]
		if quote != 0 {
			if c == '\\' {
				i += 2
				continue
			}
			if c == quote {
				quote = 0
			}
			i++
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
				if exprEnd < 0 {
					exprEnd = i
				}
				return strings.TrimSpace(body[start:exprEnd]), i + 1
			}
			depth--
		case ':':
			if depth == 0 && exprEnd < 0 {
				exprEnd = i // format spec starts
			}
		case '!':
			// Conversion marker: !s, !r, !a directly before } or :.
			if depth == 0 && exprEnd < 0 && i+1 < len(body) &&
				strings.IndexByte("sra", body[i+1]) >= 0 &&
				(i+2 >= len(body) || body[i+2] == '}' || body[i+2] == ':') {
				exprEnd = i
			}
		}
		i++
	}
	// Unterminated interpolation: ignore it.
	return "", len(body)
}

// stripQuotes removes the string prefix and the surrounding quotes.
func stripQuotes(lit string) string {
	i := 0
	for i < len(lit) && lit[i] != '\'' && lit[i] != '"' {
		i++
	}
	if i >= len(lit) {
		return ""
	}
	q := lit[i]
	rest := lit[i:]
	if len(rest) >= 6 && rest[1] == q && rest[2] == q {
		if strings.HasSuffix(rest, strings.Repeat(string(q), 3)) {
			return rest[3 : len(rest)-3]
		}
		return rest[3:]
	}
	if len(rest) >= 2 && rest[len(rest)-1] == q {
		return rest[1 : len(rest)-1]
	}
	return rest[1:]
}
