package pyparse

import (
	"seldon/internal/pyast"
	"seldon/internal/pytoken"
)

// parseNamedExprOrExpr parses `test [:= test]` — walrus is allowed in
// condition positions.
func (p *parser) parseNamedExprOrExpr() pyast.Expr {
	e := p.parseExpr()
	if p.accept(pytoken.WALRUS) {
		return &pyast.NamedExpr{Target: e, Value: p.parseExpr()}
	}
	return e
}

// parseExpr parses a `test`: lambda, conditional expression, or or-expr.
// Most are one operand (a call argument, an assigned value), so that
// comes first, and the levels from or down run only when a token follows
// that can continue an expression.
func (p *parser) parseExpr() pyast.Expr {
	var e pyast.Expr
	switch p.cur().Kind {
	case pytoken.KwLambda:
		return p.parseLambda()
	case pytoken.KwNot:
		e = p.parseOr()
	default:
		if e = p.parseUnary(); prec[p.cur().Kind] == 0 {
			return e
		}
		e = p.orFrom(p.compareFrom(p.climb(e, 1)))
	}
	if p.at(pytoken.KwIf) {
		p.next()
		cond := p.parseOr()
		p.expect(pytoken.KwElse)
		p.nest()
		els := p.parseExpr()
		p.depth--
		return &pyast.IfExp{Cond: cond, Then: e, Else: els}
	}
	return e
}

func (p *parser) parseLambda() pyast.Expr {
	tok := p.expect(pytoken.KwLambda)
	p.nest()
	params := p.parseParams(pytoken.COLON, false)
	p.expect(pytoken.COLON)
	e := &pyast.Lambda{LambdaPos: tok.Pos, Params: params, Body: p.parseExpr()}
	p.depth--
	return e
}

// parseOr parses an or-expression.
func (p *parser) parseOr() pyast.Expr { return p.orFrom(p.parseNot()) }

// orFrom parses the rest of an or-expression whose first not-level
// operand is e; boolFrom, of an op (or, and) expression.
func (p *parser) orFrom(e pyast.Expr) pyast.Expr {
	return p.boolFrom(pytoken.KwOr, p.boolFrom(pytoken.KwAnd, e))
}

func (p *parser) boolFrom(op pytoken.Kind, e pyast.Expr) pyast.Expr {
	if !p.at(op) {
		return e
	}
	mark := p.sc.exprs.mark()
	p.sc.exprs.push(e)
	for p.accept(op) {
		if e = p.parseNot(); op == pytoken.KwOr {
			e = p.boolFrom(pytoken.KwAnd, e)
		}
		p.sc.exprs.push(e)
	}
	return &pyast.BoolOp{Op: op, Values: p.sc.exprs.carve(mark)}
}

func (p *parser) parseNot() pyast.Expr {
	if p.at(pytoken.KwNot) {
		tok := p.next()
		p.nest()
		e := &pyast.UnaryOp{OpPos: tok.Pos, Op: pytoken.KwNot, Operand: p.parseNot()}
		p.depth--
		return e
	}
	return p.compareFrom(p.climb(p.parseUnary(), 1))
}

// compareFrom parses the rest of a comparison whose left operand is left.
func (p *parser) compareFrom(left pyast.Expr) pyast.Expr {
	var ops []pyast.CompareOp
	mark := p.sc.exprs.mark()
	for {
		var op pyast.CompareOp
		switch p.cur().Kind {
		case pytoken.LT, pytoken.GT, pytoken.LE, pytoken.GE, pytoken.EQ, pytoken.NE, pytoken.KwIn:
			op.Kind = p.next().Kind
		case pytoken.KwIs:
			op.Kind, op.Not = p.next().Kind, p.accept(pytoken.KwNot)
		case pytoken.KwNot:
			if p.peekKind(1) != pytoken.KwIn {
				p.errorf("expected 'in' after 'not' in comparison")
			}
			p.next()
			op.Kind, op.Not = p.next().Kind, true
		default:
			if len(ops) == 0 {
				return left
			}
			return &pyast.Compare{Left: left, Ops: ops, Comparators: p.sc.exprs.carve(mark)}
		}
		ops = append(ops, op)
		p.sc.exprs.push(p.climb(p.parseUnary(), 1))
	}
}

// prec is what a token means right after an operand: the precedence of
// a binary operator, from | (1) up to * / // % @ (6); continues for a
// token that goes on with the expression at a lower level (a comparison
// operator, and, or, not, in, is, if); and 0 for one that ends it. **
// is absent: parsePower takes it.
var prec = [256]int8{
	pytoken.PIPE: 1, pytoken.CARET: 2, pytoken.AMPER: 3,
	pytoken.LSHIFT: 4, pytoken.RSHIFT: 4, pytoken.PLUS: 5, pytoken.MINUS: 5,
	pytoken.STAR: 6, pytoken.SLASH: 6, pytoken.DOUBLESLASH: 6, pytoken.PERCENT: 6, pytoken.AT: 6,
	pytoken.LT: continues, pytoken.GT: continues, pytoken.LE: continues, pytoken.GE: continues,
	pytoken.EQ: continues, pytoken.NE: continues, pytoken.KwIn: continues, pytoken.KwIs: continues,
	pytoken.KwNot: continues, pytoken.KwAnd: continues, pytoken.KwOr: continues, pytoken.KwIf: continues,
}

const continues = -1

// climb parses the binary operators of precedence lowest and up that follow
// left, by precedence climbing: each builds a left-associative BinOp, and
// a tighter operator after its right operand is climbed into first.
func (p *parser) climb(left pyast.Expr, lowest int8) pyast.Expr {
	for level := prec[p.cur().Kind]; level >= lowest; level = prec[p.cur().Kind] {
		op := p.next().Kind
		right := p.parseUnary()
		if prec[p.cur().Kind] > level {
			right = p.climb(right, level+1)
		}
		left = &pyast.BinOp{Left: left, Op: op, Right: right, Start: left.Pos()}
	}
	return left
}

func (p *parser) parseUnary() pyast.Expr {
	switch p.cur().Kind {
	case pytoken.PLUS, pytoken.MINUS, pytoken.TILDE:
		tok := p.next()
		p.nest()
		e := &pyast.UnaryOp{OpPos: tok.Pos, Op: tok.Kind, Operand: p.parseUnary()}
		p.depth--
		return e
	}
	return p.parsePower()
}

func (p *parser) parsePower() pyast.Expr {
	e := p.parseAwait()
	if p.accept(pytoken.DOUBLESTAR) {
		// ** is right-associative and binds tighter than unary on the right.
		p.nest()
		e = &pyast.BinOp{Left: e, Op: pytoken.DOUBLESTAR, Right: p.parseUnary(), Start: e.Pos()}
		p.depth--
	}
	return e
}

// parseAwait parses `[await] primary`: what await takes is a primary, so
// `await await y` is an error, as in CPython.
func (p *parser) parseAwait() pyast.Expr {
	if p.at(pytoken.KwAwait) {
		tok := p.next()
		p.nest()
		e := &pyast.Await{AwaitPos: tok.Pos, Value: p.parsePostfix(p.parseAtom())}
		p.depth--
		return e
	}
	return p.parsePostfix(p.parseAtom())
}

// parsePostfix applies call, attribute, and subscript suffixes to an atom;
// each suffix node records the atom's position as its start.
func (p *parser) parsePostfix(e pyast.Expr) pyast.Expr {
	for {
		switch p.cur().Kind {
		case pytoken.LPAREN:
			p.next()
			args, kws := p.parseCallArgs()
			p.expect(pytoken.RPAREN)
			e = node(&p.sc.calls, pyast.Call{Func: e, Args: args, Keywords: kws, Start: e.Pos()})
		case pytoken.DOT:
			p.next()
			nm := p.expectNameLike()
			e = node(&p.sc.attrs, pyast.Attribute{Value: e, Attr: nm.Lit, AttrPos: nm.Pos, Start: e.Pos()})
		case pytoken.LBRACKET:
			p.next()
			idx := p.parseSubscriptIndex()
			p.expect(pytoken.RBRACKET)
			e = &pyast.Subscript{Value: e, Index: idx, Start: e.Pos()}
		default:
			return e
		}
	}
}

// expectNameLike accepts a NAME or a keyword used as an attribute (seen in
// the wild for e.g. `obj.import_`-style APIs that shadow soft keywords).
func (p *parser) expectNameLike() pytoken.Token {
	if p.at(pytoken.NAME) || p.cur().Kind.IsKeyword() {
		return p.next()
	}
	p.errorf("expected attribute name, found %s", p.cur())
	return pytoken.Token{}
}

// parseSubscriptIndex parses `a`, `a:b`, `a:b:c`, or a tuple of these.
func (p *parser) parseSubscriptIndex() pyast.Expr {
	first := p.parseSliceItem()
	if !p.at(pytoken.COMMA) {
		return first
	}
	mark := p.sc.exprs.mark()
	p.sc.exprs.push(first)
	for p.accept(pytoken.COMMA) {
		if p.at(pytoken.RBRACKET) {
			break
		}
		p.sc.exprs.push(p.parseSliceItem())
	}
	return &pyast.Tuple{TuplePos: first.Pos(), Elts: p.sc.exprs.carve(mark)}
}

func (p *parser) parseSliceItem() pyast.Expr {
	var lo pyast.Expr
	if !p.at(pytoken.COLON) {
		lo = p.parseExpr()
		if !p.at(pytoken.COLON) {
			return lo
		}
	}
	colon := p.expect(pytoken.COLON)
	sl := &pyast.Slice{ColonPos: colon.Pos, Lo: lo}
	if !p.at(pytoken.COLON) && !p.at(pytoken.RBRACKET) && !p.at(pytoken.COMMA) {
		sl.Hi = p.parseExpr()
	}
	if p.accept(pytoken.COLON) {
		if !p.at(pytoken.RBRACKET) && !p.at(pytoken.COMMA) {
			sl.Step = p.parseExpr()
		}
	}
	return sl
}

// parseCallArgs parses positional and keyword arguments up to the closing
// paren (not consumed). `*x` becomes a Starred positional; `**x` becomes a
// Keyword with empty name.
func (p *parser) parseCallArgs() ([]pyast.Expr, []*pyast.Keyword) {
	args, kws := p.sc.exprs.mark(), p.sc.keywordPtrs.mark()
	for !p.at(pytoken.RPAREN) && !p.at(pytoken.EOF) {
		switch {
		case p.at(pytoken.DOUBLESTAR):
			pos := p.next().Pos
			p.sc.keywordPtrs.push(node(&p.sc.keywords, pyast.Keyword{NamePos: pos, Value: p.parseExpr()}))
		case p.at(pytoken.STAR):
			pos := p.next().Pos
			p.sc.exprs.push(&pyast.Starred{StarPos: pos, Value: p.parseExpr()})
		case p.at(pytoken.NAME) && p.peekKind(1) == pytoken.ASSIGN:
			nm := p.next()
			p.next() // =
			p.sc.keywordPtrs.push(node(&p.sc.keywords, pyast.Keyword{NamePos: nm.Pos, Name: nm.Lit, Value: p.parseExpr()}))
		default:
			arg := p.parseNamedExprOrExpr()
			// Generator expression as sole argument: f(x for x in y)
			if p.at(pytoken.KwFor) || p.at(pytoken.KwAsync) && p.peekKind(1) == pytoken.KwFor {
				comp := &pyast.Comp{CompPos: arg.Pos(), Kind: pyast.GeneratorExp, Elt: arg}
				comp.Clauses = p.parseCompClauses()
				arg = comp
			}
			p.sc.exprs.push(arg)
		}
		if !p.accept(pytoken.COMMA) {
			break
		}
	}
	return p.sc.exprs.carve(args), p.sc.keywordPtrs.carve(kws)
}

func (p *parser) parseYield() pyast.Expr {
	tok := p.expect(pytoken.KwYield)
	y := &pyast.Yield{YieldPos: tok.Pos}
	if p.accept(pytoken.KwFrom) {
		y.From = true
		y.Value = p.parseExpr()
		return y
	}
	if !p.at(pytoken.NEWLINE) && !p.at(pytoken.RPAREN) && !p.at(pytoken.RBRACKET) &&
		!p.at(pytoken.RBRACE) && !p.at(pytoken.SEMI) && !p.at(pytoken.EOF) && !p.at(pytoken.DEDENT) {
		y.Value = p.parseExprList()
	}
	return y
}

// ---------------------------------------------------------------------------
// Atoms

func (p *parser) parseAtom() pyast.Expr {
	tok := p.cur()
	switch tok.Kind {
	case pytoken.NAME:
		p.next()
		return node(&p.sc.names, pyast.Name{NamePos: tok.Pos, Ident: tok.Lit})
	case pytoken.NUMBER:
		p.next()
		return node(&p.sc.nums, pyast.Num{NumPos: tok.Pos, Lit: tok.Lit})
	case pytoken.STRING:
		return p.parseStringConcat()
	case pytoken.KwTrue, pytoken.KwFalse, pytoken.KwNone:
		p.next()
		return node(&p.sc.consts, pyast.NameConst{ConstPos: tok.Pos, Value: tok.Kind.String()})
	case pytoken.ELLIPSIS:
		p.next()
		return &pyast.EllipsisLit{DotsPos: tok.Pos}
	case pytoken.LPAREN:
		return p.parseParenForm()
	case pytoken.LBRACKET:
		return p.parseListForm()
	case pytoken.LBRACE:
		return p.parseBraceForm()
	default:
		p.errorf("unexpected %s in expression", tok)
		return nil
	}
}

// parseStringConcat handles implicit adjacent-literal concatenation and
// f-string interpolation: if any part is an f-string with {…} values, the
// result is a JoinedStr carrying the parsed interpolations.
func (p *parser) parseStringConcat() pyast.Expr {
	start := p.pos
	first := p.next()
	lit := first.Lit
	for p.at(pytoken.STRING) {
		lit += p.next().Lit
	}
	mark := p.sc.exprs.mark()
	for _, tok := range p.toks[start:p.pos] {
		p.parseFString(tok)
	}
	if values := p.sc.exprs.carve(mark); len(values) > 0 {
		return &pyast.JoinedStr{StrPos: first.Pos, Lit: lit, Values: values}
	}
	return node(&p.sc.strs, pyast.Str{StrPos: first.Pos, Lit: lit})
}

// parseParenForm parses `()`, a parenthesized expression, a tuple, a
// generator expression, or a parenthesized yield.
func (p *parser) parseParenForm() pyast.Expr {
	open := p.expect(pytoken.LPAREN)
	if p.at(pytoken.RPAREN) {
		p.next()
		return &pyast.Tuple{TuplePos: open.Pos}
	}
	if p.at(pytoken.KwYield) {
		y := p.parseYield()
		p.expect(pytoken.RPAREN)
		return y
	}
	first := p.parseStarOrNamedExpr()
	switch {
	case p.at(pytoken.KwFor) || p.at(pytoken.KwAsync):
		comp := &pyast.Comp{CompPos: open.Pos, Kind: pyast.GeneratorExp, Elt: first}
		comp.Clauses = p.parseCompClauses()
		p.expect(pytoken.RPAREN)
		return comp
	case p.at(pytoken.COMMA):
		mark := p.sc.exprs.mark()
		p.sc.exprs.push(first)
		for p.accept(pytoken.COMMA) {
			if p.at(pytoken.RPAREN) {
				break
			}
			p.sc.exprs.push(p.parseStarOrNamedExpr())
		}
		p.expect(pytoken.RPAREN)
		return &pyast.Tuple{TuplePos: open.Pos, Elts: p.sc.exprs.carve(mark)}
	default:
		if _, ok := first.(*pyast.Starred); ok {
			p.errorf("cannot use starred expression here")
		}
		p.expect(pytoken.RPAREN)
		return first
	}
}

func (p *parser) parseStarOrNamedExpr() pyast.Expr {
	if p.at(pytoken.STAR) {
		tok := p.next()
		return &pyast.Starred{StarPos: tok.Pos, Value: p.parseExpr()}
	}
	return p.parseNamedExprOrExpr()
}

func (p *parser) parseListForm() pyast.Expr {
	open := p.expect(pytoken.LBRACKET)
	if p.at(pytoken.RBRACKET) {
		p.next()
		return node(&p.sc.lists, pyast.List{ListPos: open.Pos})
	}
	first := p.parseStarOrNamedExpr()
	if p.at(pytoken.KwFor) || p.at(pytoken.KwAsync) {
		comp := &pyast.Comp{CompPos: open.Pos, Kind: pyast.ListComp, Elt: first}
		comp.Clauses = p.parseCompClauses()
		p.expect(pytoken.RBRACKET)
		return comp
	}
	mark := p.sc.exprs.mark()
	p.sc.exprs.push(first)
	for p.accept(pytoken.COMMA) {
		if p.at(pytoken.RBRACKET) {
			break
		}
		p.sc.exprs.push(p.parseStarOrNamedExpr())
	}
	p.expect(pytoken.RBRACKET)
	return node(&p.sc.lists, pyast.List{ListPos: open.Pos, Elts: p.sc.exprs.carve(mark)})
}

// parseBraceForm parses dict and set displays and comprehensions.
func (p *parser) parseBraceForm() pyast.Expr {
	open := p.expect(pytoken.LBRACE)
	if p.at(pytoken.RBRACE) {
		p.next()
		return &pyast.Dict{DictPos: open.Pos}
	}
	if p.at(pytoken.DOUBLESTAR) {
		// {**a, ...} is always a dict.
		d := &pyast.Dict{DictPos: open.Pos}
		p.parseDictItems(d)
		p.expect(pytoken.RBRACE)
		return d
	}
	first := p.parseStarOrNamedExpr()
	if p.accept(pytoken.COLON) {
		value := p.parseExpr()
		if p.at(pytoken.KwFor) || p.at(pytoken.KwAsync) {
			comp := &pyast.Comp{CompPos: open.Pos, Kind: pyast.DictComp, Elt: first, Value: value}
			comp.Clauses = p.parseCompClauses()
			p.expect(pytoken.RBRACE)
			return comp
		}
		d := &pyast.Dict{DictPos: open.Pos, Keys: []pyast.Expr{first}, Values: []pyast.Expr{value}}
		if p.accept(pytoken.COMMA) {
			p.parseDictItems(d)
		}
		p.expect(pytoken.RBRACE)
		return d
	}
	if p.at(pytoken.KwFor) || p.at(pytoken.KwAsync) {
		comp := &pyast.Comp{CompPos: open.Pos, Kind: pyast.SetComp, Elt: first}
		comp.Clauses = p.parseCompClauses()
		p.expect(pytoken.RBRACE)
		return comp
	}
	mark := p.sc.exprs.mark()
	p.sc.exprs.push(first)
	for p.accept(pytoken.COMMA) {
		if p.at(pytoken.RBRACE) {
			break
		}
		p.sc.exprs.push(p.parseStarOrNamedExpr())
	}
	p.expect(pytoken.RBRACE)
	return &pyast.Set{SetPos: open.Pos, Elts: p.sc.exprs.carve(mark)}
}

func (p *parser) parseDictItems(d *pyast.Dict) {
	for !p.at(pytoken.RBRACE) && !p.at(pytoken.EOF) {
		if p.at(pytoken.DOUBLESTAR) {
			p.next()
			d.Keys = append(d.Keys, nil)
			d.Values = append(d.Values, p.parseExpr())
		} else {
			key := p.parseExpr()
			p.expect(pytoken.COLON)
			d.Keys = append(d.Keys, key)
			d.Values = append(d.Values, p.parseExpr())
		}
		if !p.accept(pytoken.COMMA) {
			break
		}
	}
}

func (p *parser) parseCompClauses() []*pyast.CompClause {
	var clauses []*pyast.CompClause
	for {
		async := false
		if p.at(pytoken.KwAsync) && p.peekKind(1) == pytoken.KwFor {
			p.next()
			async = true
		}
		if !p.accept(pytoken.KwFor) {
			break
		}
		c := &pyast.CompClause{Async: async}
		c.Target = p.parseTargetList()
		p.expect(pytoken.KwIn)
		c.Iter = p.parseOr()
		for p.accept(pytoken.KwIf) {
			c.Ifs = append(c.Ifs, p.parseOr())
		}
		clauses = append(clauses, c)
	}
	return clauses
}
