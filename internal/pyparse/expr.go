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
func (p *parser) parseExpr() pyast.Expr {
	if p.at(pytoken.KwLambda) {
		return p.parseLambda()
	}
	e := p.parseOr()
	if p.at(pytoken.KwIf) {
		p.next()
		cond := p.parseOr()
		p.expect(pytoken.KwElse)
		els := p.parseExpr()
		return &pyast.IfExp{Cond: cond, Then: e, Else: els}
	}
	return e
}

func (p *parser) parseLambda() pyast.Expr {
	tok := p.expect(pytoken.KwLambda)
	params := p.parseParams(pytoken.COLON, false)
	p.expect(pytoken.COLON)
	return &pyast.Lambda{LambdaPos: tok.Pos, Params: params, Body: p.parseExpr()}
}

func (p *parser) parseOr() pyast.Expr {
	e := p.parseAnd()
	if !p.at(pytoken.KwOr) {
		return e
	}
	mark := p.sc.exprs.mark()
	p.sc.exprs.push(e)
	for p.accept(pytoken.KwOr) {
		p.sc.exprs.push(p.parseAnd())
	}
	return &pyast.BoolOp{Op: pytoken.KwOr, Values: p.sc.exprs.carve(mark)}
}

func (p *parser) parseAnd() pyast.Expr {
	e := p.parseNot()
	if !p.at(pytoken.KwAnd) {
		return e
	}
	mark := p.sc.exprs.mark()
	p.sc.exprs.push(e)
	for p.accept(pytoken.KwAnd) {
		p.sc.exprs.push(p.parseNot())
	}
	return &pyast.BoolOp{Op: pytoken.KwAnd, Values: p.sc.exprs.carve(mark)}
}

func (p *parser) parseNot() pyast.Expr {
	if p.at(pytoken.KwNot) {
		tok := p.next()
		return &pyast.UnaryOp{OpPos: tok.Pos, Op: pytoken.KwNot, Operand: p.parseNot()}
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() pyast.Expr {
	left := p.parseBitOr()
	var ops []pyast.CompareOp
	mark := p.sc.exprs.mark()
	for {
		var op pyast.CompareOp
		switch p.cur().Kind {
		case pytoken.LT, pytoken.GT, pytoken.LE, pytoken.GE, pytoken.EQ, pytoken.NE:
			op.Kind = p.next().Kind
		case pytoken.KwIn:
			p.next()
			op.Kind = pytoken.KwIn
		case pytoken.KwIs:
			p.next()
			op.Kind = pytoken.KwIs
			if p.accept(pytoken.KwNot) {
				op.Not = true
			}
		case pytoken.KwNot:
			if p.peekKind(1) != pytoken.KwIn {
				p.errorf("expected 'in' after 'not' in comparison")
			}
			p.next()
			p.next()
			op.Kind = pytoken.KwIn
			op.Not = true
		default:
			if len(ops) == 0 {
				return left
			}
			return &pyast.Compare{Left: left, Ops: ops, Comparators: p.sc.exprs.carve(mark)}
		}
		ops = append(ops, op)
		p.sc.exprs.push(p.parseBitOr())
	}
}

// Binary operator precedence climbing for | ^ & << >> + - * / // % @.
func (p *parser) parseBitOr() pyast.Expr {
	return p.parseBinary(0)
}

// binLevels lists binary operators from lowest to highest precedence.
var binLevels = [][]pytoken.Kind{
	{pytoken.PIPE},
	{pytoken.CARET},
	{pytoken.AMPER},
	{pytoken.LSHIFT, pytoken.RSHIFT},
	{pytoken.PLUS, pytoken.MINUS},
	{pytoken.STAR, pytoken.SLASH, pytoken.DOUBLESLASH, pytoken.PERCENT, pytoken.AT},
}

func (p *parser) parseBinary(level int) pyast.Expr {
	if level == len(binLevels) {
		return p.parseUnary()
	}
	e := p.parseBinary(level + 1)
	for contains(binLevels[level], p.cur().Kind) {
		op := p.next().Kind
		right := p.parseBinary(level + 1)
		e = &pyast.BinOp{Left: e, Op: op, Right: right}
	}
	return e
}

func contains(ks []pytoken.Kind, k pytoken.Kind) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

func (p *parser) parseUnary() pyast.Expr {
	switch p.cur().Kind {
	case pytoken.PLUS, pytoken.MINUS, pytoken.TILDE:
		tok := p.next()
		return &pyast.UnaryOp{OpPos: tok.Pos, Op: tok.Kind, Operand: p.parseUnary()}
	}
	return p.parsePower()
}

func (p *parser) parsePower() pyast.Expr {
	e := p.parseAwait()
	if p.accept(pytoken.DOUBLESTAR) {
		// ** is right-associative and binds tighter than unary on the right.
		return &pyast.BinOp{Left: e, Op: pytoken.DOUBLESTAR, Right: p.parseUnary()}
	}
	return e
}

func (p *parser) parseAwait() pyast.Expr {
	if p.at(pytoken.KwAwait) {
		tok := p.next()
		return &pyast.Await{AwaitPos: tok.Pos, Value: p.parseAwait()}
	}
	return p.parsePostfix(p.parseAtom())
}

// parsePostfix applies call, attribute, and subscript suffixes to an atom.
func (p *parser) parsePostfix(e pyast.Expr) pyast.Expr {
	for {
		switch p.cur().Kind {
		case pytoken.LPAREN:
			p.next()
			args, kws := p.parseCallArgs()
			p.expect(pytoken.RPAREN)
			e = node(&p.sc.calls, pyast.Call{Func: e, Args: args, Keywords: kws})
		case pytoken.DOT:
			p.next()
			nm := p.expectNameLike()
			e = node(&p.sc.attrs, pyast.Attribute{Value: e, Attr: nm.Lit, AttrPos: nm.Pos})
		case pytoken.LBRACKET:
			p.next()
			idx := p.parseSubscriptIndex()
			p.expect(pytoken.RBRACKET)
			e = &pyast.Subscript{Value: e, Index: idx}
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
	case pytoken.KwYield:
		return p.parseYield()
	case pytoken.KwLambda:
		return p.parseLambda()
	case pytoken.KwAwait:
		return p.parseAwait()
	case pytoken.KwNot:
		return p.parseNot()
	case pytoken.PLUS, pytoken.MINUS, pytoken.TILDE:
		return p.parseUnary()
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
