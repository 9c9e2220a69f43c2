// Package pyparse implements a recursive-descent parser for the Python
// subset Seldon analyzes.
//
// The parser consumes the token stream produced by pytoken and builds a
// pyast.Module. It covers the statement and expression grammar needed for
// real-world web-application code: function/class definitions with
// decorators, the full assignment family, control flow, imports,
// comprehensions, lambdas, conditional expressions, and chained
// comparisons. Errors are accumulated; within a suite the parser resyncs at
// statement boundaries so a single bad statement does not abort the file.
package pyparse

import (
	"fmt"
	"strings"

	"seldon/internal/pyast"
	"seldon/internal/pytoken"
)

// ParseError describes a syntax error with its source position.
type ParseError struct {
	File string
	Pos  pytoken.Pos
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%s:%s: %s", e.File, e.Pos, e.Msg)
}

// bailout is panicked with internally to unwind to the statement resync
// point; it never escapes the package.
type bailout struct{}

type parser struct {
	file string
	toks []pytoken.Token
	pos  int
	errs []error
	sc   *Scratch // where nodes and lists come from; never nil
}

// Parse parses src into a module. The returned module contains every
// statement that parsed successfully even when err is non-nil.
func Parse(file, src string) (*pyast.Module, error) {
	return ParseWith(nil, file, src)
}

// ParseWith is Parse with a reusable Scratch: tokens, AST nodes and list
// backings are carved from the scratch's buffers instead of allocated,
// so the returned module is valid only until the next ParseWith or Reset
// on the same scratch. A nil scratch parses into fresh buffers that the
// module then owns. The module and the error text are identical either
// way, and the error never refers to the scratch.
func ParseWith(sc *Scratch, file, src string) (*pyast.Module, error) {
	if sc == nil {
		sc = new(Scratch)
	} else {
		sc.Reset()
	}
	sc.scan.Init(file, src)
	toks, scanErr := sc.scan.ScanAllInto(sc.toks)
	sc.toks = toks
	p := &parser{file: file, toks: toks, sc: sc}
	if scanErr != nil {
		p.errs = append(p.errs, scanErr)
	}
	mod := &pyast.Module{File: file, Body: p.parseSuiteUntil(pytoken.EOF)}
	return mod, p.err()
}

func (p *parser) err() error {
	if len(p.errs) == 0 {
		return nil
	}
	msgs := make([]string, 0, len(p.errs))
	for _, e := range p.errs {
		msgs = append(msgs, e.Error())
	}
	return fmt.Errorf("%s", strings.Join(msgs, "\n"))
}

func (p *parser) cur() pytoken.Token     { return p.toks[p.pos] }
func (p *parser) at(k pytoken.Kind) bool { return p.cur().Kind == k }

func (p *parser) peekKind(n int) pytoken.Kind {
	if p.pos+n < len(p.toks) {
		return p.toks[p.pos+n].Kind
	}
	return pytoken.EOF
}

func (p *parser) next() pytoken.Token {
	t := p.cur()
	if t.Kind != pytoken.EOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(k pytoken.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k pytoken.Kind) pytoken.Token {
	if !p.at(k) {
		p.errorf("expected %s, found %s", k, p.cur())
	}
	return p.next()
}

func (p *parser) errorf(format string, args ...any) {
	p.errs = append(p.errs, &ParseError{File: p.file, Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)})
	panic(bailout{})
}

// sync skips tokens until just past the next NEWLINE at bracket depth zero
// (the scanner guarantees NEWLINE only appears at depth zero), or until a
// DEDENT/EOF, so parsing can resume at the next statement.
func (p *parser) sync() {
	for {
		switch p.cur().Kind {
		case pytoken.EOF, pytoken.DEDENT:
			return
		case pytoken.NEWLINE:
			p.next()
			return
		}
		p.next()
	}
}

// ---------------------------------------------------------------------------
// Statements

// parseSuiteUntil parses statements until the terminator kind, recovering
// from per-statement errors.
func (p *parser) parseSuiteUntil(end pytoken.Kind) []pyast.Stmt {
	mark := p.sc.stmts.mark()
	for !p.at(end) && !p.at(pytoken.EOF) {
		before := p.pos
		p.parseStatementRecover()
		if p.pos == before {
			// Guarantee progress on malformed input (e.g. a stray DEDENT
			// at top level that error recovery refuses to consume).
			p.next()
		}
	}
	if p.at(end) && end != pytoken.EOF {
		p.next()
	}
	return p.sc.stmts.carve(mark)
}

// marks records the depth of every list-building stack, so an error
// bailout can pop what the abandoned statement had pushed.
type marks struct{ exprs, stmts, params, aliases, keywords int }

func (p *parser) marks() marks {
	sc := p.sc
	return marks{sc.exprs.mark(), sc.stmts.mark(), sc.paramPtrs.mark(), sc.aliasPtrs.mark(), sc.keywordPtrs.mark()}
}

func (p *parser) unwind(m marks) {
	sc := p.sc
	sc.exprs.truncate(m.exprs)
	sc.stmts.truncate(m.stmts)
	sc.paramPtrs.truncate(m.params)
	sc.aliasPtrs.truncate(m.aliases)
	sc.keywordPtrs.truncate(m.keywords)
}

// parseStatementRecover parses one statement onto the statement stack; a
// statement that fails to parse contributes nothing.
func (p *parser) parseStatementRecover() {
	m := p.marks()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			p.unwind(m)
			p.sync()
		}
	}()
	p.parseStatement()
}

// parseStatement parses one logical line (possibly several simple
// statements separated by semicolons) or one compound statement, pushing
// the result on the statement stack.
func (p *parser) parseStatement() {
	var st pyast.Stmt
	switch p.cur().Kind {
	case pytoken.NEWLINE:
		p.next()
		return
	case pytoken.KwIf:
		st = p.parseIf()
	case pytoken.KwWhile:
		st = p.parseWhile()
	case pytoken.KwFor:
		st = p.parseFor(false)
	case pytoken.KwTry:
		st = p.parseTry()
	case pytoken.KwWith:
		st = p.parseWith(false)
	case pytoken.KwDef:
		st = p.parseFunctionDef(nil, false)
	case pytoken.KwClass:
		st = p.parseClassDef(nil)
	case pytoken.AT:
		st = p.parseDecorated()
	case pytoken.KwAsync:
		st = p.parseAsync()
	default:
		p.parseSimpleLine()
		return
	}
	p.sc.stmts.push(st)
}

func (p *parser) parseAsync() pyast.Stmt {
	p.next() // async
	switch p.cur().Kind {
	case pytoken.KwDef:
		return p.parseFunctionDef(nil, true)
	case pytoken.KwFor:
		return p.parseFor(true)
	case pytoken.KwWith:
		return p.parseWith(true)
	}
	p.errorf("expected def, for, or with after async")
	return nil
}

func (p *parser) parseDecorated() pyast.Stmt {
	mark := p.sc.exprs.mark()
	for p.at(pytoken.AT) {
		p.next()
		p.sc.exprs.push(p.parseExpr())
		p.expect(pytoken.NEWLINE)
	}
	decorators := p.sc.exprs.carve(mark)
	switch p.cur().Kind {
	case pytoken.KwDef:
		return p.parseFunctionDef(decorators, false)
	case pytoken.KwClass:
		return p.parseClassDef(decorators)
	case pytoken.KwAsync:
		p.next()
		if p.at(pytoken.KwDef) {
			return p.parseFunctionDef(decorators, true)
		}
	}
	p.errorf("expected def or class after decorators")
	return nil
}

func (p *parser) parseFunctionDef(decorators []pyast.Expr, async bool) pyast.Stmt {
	defTok := p.expect(pytoken.KwDef)
	name := p.expect(pytoken.NAME)
	p.expect(pytoken.LPAREN)
	params := p.parseParams(pytoken.RPAREN, true)
	p.expect(pytoken.RPAREN)
	var returns pyast.Expr
	if p.accept(pytoken.ARROW) {
		returns = p.parseExpr()
	}
	body := p.parseBlock()
	return node(&p.sc.funcs, pyast.FunctionDef{
		DefPos: defTok.Pos, Name: name.Lit, Params: params,
		Decorators: decorators, Returns: returns, Body: body, Async: async,
	})
}

// parseParams parses a parameter list up to (not including) end.
// It handles defaults, annotations (when allowAnn — lambdas forbid them,
// since `:` ends the lambda's parameter list), *args, **kwargs, and the
// bare `*` and `/` separators (recorded only for their effect on parsing).
func (p *parser) parseParams(end pytoken.Kind, allowAnn bool) []*pyast.Param {
	mark := p.sc.paramPtrs.mark()
	param := func(v pyast.Param) {
		prm := node(&p.sc.params, v)
		p.parseParamTail(prm, allowAnn)
		p.sc.paramPtrs.push(prm)
	}
	for !p.at(end) && !p.at(pytoken.EOF) {
		switch {
		case p.accept(pytoken.SLASH):
			// positional-only marker: nothing to record
		case p.at(pytoken.STAR):
			starPos := p.next().Pos
			if p.at(pytoken.NAME) {
				param(pyast.Param{NamePos: starPos, Name: p.next().Lit, Star: true})
			}
			// bare `*` (keyword-only marker): nothing to record
		case p.at(pytoken.DOUBLESTAR):
			pos := p.next().Pos
			nm := p.expect(pytoken.NAME)
			param(pyast.Param{NamePos: pos, Name: nm.Lit, DoubleStar: true})
		case p.at(pytoken.NAME):
			nm := p.next()
			param(pyast.Param{NamePos: nm.Pos, Name: nm.Lit})
		default:
			p.errorf("unexpected %s in parameter list", p.cur())
		}
		if !p.accept(pytoken.COMMA) {
			break
		}
	}
	return p.sc.paramPtrs.carve(mark)
}

func (p *parser) parseParamTail(prm *pyast.Param, allowAnn bool) {
	if allowAnn && p.accept(pytoken.COLON) {
		prm.Annotation = p.parseExpr()
	}
	if p.accept(pytoken.ASSIGN) {
		prm.Default = p.parseExpr()
	}
}

func (p *parser) parseClassDef(decorators []pyast.Expr) pyast.Stmt {
	classTok := p.expect(pytoken.KwClass)
	name := p.expect(pytoken.NAME)
	var bases []pyast.Expr
	var kws []*pyast.Keyword
	if p.accept(pytoken.LPAREN) {
		bases, kws = p.parseCallArgs()
		p.expect(pytoken.RPAREN)
	}
	body := p.parseBlock()
	return &pyast.ClassDef{
		ClassPos: classTok.Pos, Name: name.Lit, Bases: bases,
		Keywords: kws, Decorators: decorators, Body: body,
	}
}

// parseBlock parses `: NEWLINE INDENT stmts DEDENT` or a same-line suite.
func (p *parser) parseBlock() []pyast.Stmt {
	p.expect(pytoken.COLON)
	if p.accept(pytoken.NEWLINE) {
		p.expect(pytoken.INDENT)
		return p.parseSuiteUntil(pytoken.DEDENT)
	}
	// Inline suite: `if x: y = 1; z = 2`
	mark := p.sc.stmts.mark()
	p.parseSimpleLine()
	return p.sc.stmts.carve(mark)
}

func (p *parser) parseIf() pyast.Stmt {
	ifTok := p.next()
	cond := p.parseNamedExprOrExpr()
	body := p.parseBlock()
	var els []pyast.Stmt
	switch p.cur().Kind {
	case pytoken.KwElif:
		els = p.sc.stmts.arena.Alloc(1)
		els[0] = p.parseIf() // KwElif parses like KwIf
	case pytoken.KwElse:
		p.next()
		els = p.parseBlock()
	}
	return node(&p.sc.ifs, pyast.If{IfPos: ifTok.Pos, Cond: cond, Body: body, Else: els})
}

func (p *parser) parseWhile() pyast.Stmt {
	tok := p.next()
	cond := p.parseNamedExprOrExpr()
	body := p.parseBlock()
	var els []pyast.Stmt
	if p.accept(pytoken.KwElse) {
		els = p.parseBlock()
	}
	return &pyast.While{WhilePos: tok.Pos, Cond: cond, Body: body, Else: els}
}

func (p *parser) parseFor(async bool) pyast.Stmt {
	tok := p.expect(pytoken.KwFor)
	target := p.parseTargetList()
	p.expect(pytoken.KwIn)
	iter := p.parseExprList()
	body := p.parseBlock()
	var els []pyast.Stmt
	if p.accept(pytoken.KwElse) {
		els = p.parseBlock()
	}
	return &pyast.For{ForPos: tok.Pos, Target: target, Iter: iter, Body: body, Else: els, Async: async}
}

func (p *parser) parseTry() pyast.Stmt {
	tok := p.next()
	body := p.parseBlock()
	t := &pyast.Try{TryPos: tok.Pos, Body: body}
	for p.at(pytoken.KwExcept) {
		exTok := p.next()
		h := &pyast.ExceptHandler{ExceptPos: exTok.Pos}
		if !p.at(pytoken.COLON) {
			h.Type = p.parseExpr()
			if p.accept(pytoken.KwAs) {
				h.Name = p.expect(pytoken.NAME).Lit
			}
		}
		h.Body = p.parseBlock()
		t.Handlers = append(t.Handlers, h)
	}
	if p.accept(pytoken.KwElse) {
		t.Else = p.parseBlock()
	}
	if p.accept(pytoken.KwFinally) {
		t.Finally = p.parseBlock()
	}
	if len(t.Handlers) == 0 && t.Finally == nil {
		p.errorf("try statement must have except or finally")
	}
	return t
}

func (p *parser) parseWith(async bool) pyast.Stmt {
	tok := p.expect(pytoken.KwWith)
	w := &pyast.With{WithPos: tok.Pos, Async: async}
	for {
		item := &pyast.WithItem{Context: p.parseExpr()}
		if p.accept(pytoken.KwAs) {
			item.Vars = p.parsePrimaryTarget()
		}
		w.Items = append(w.Items, item)
		if !p.accept(pytoken.COMMA) {
			break
		}
	}
	w.Body = p.parseBlock()
	return w
}

// parseSimpleLine parses semicolon-separated simple statements up to
// NEWLINE onto the statement stack.
func (p *parser) parseSimpleLine() {
	for {
		p.sc.stmts.push(p.parseSimpleStatement())
		if !p.accept(pytoken.SEMI) {
			break
		}
		if p.at(pytoken.NEWLINE) || p.at(pytoken.EOF) {
			break
		}
	}
	if !p.accept(pytoken.NEWLINE) && !p.at(pytoken.EOF) && !p.at(pytoken.DEDENT) {
		p.errorf("expected end of statement, found %s", p.cur())
	}
}

func (p *parser) parseSimpleStatement() pyast.Stmt {
	switch p.cur().Kind {
	case pytoken.KwReturn:
		tok := p.next()
		var val pyast.Expr
		if !p.at(pytoken.NEWLINE) && !p.at(pytoken.SEMI) && !p.at(pytoken.EOF) && !p.at(pytoken.DEDENT) {
			val = p.parseExprList()
		}
		return node(&p.sc.returns, pyast.Return{ReturnPos: tok.Pos, Value: val})
	case pytoken.KwPass:
		return &pyast.Pass{PassPos: p.next().Pos}
	case pytoken.KwBreak:
		return &pyast.Break{BreakPos: p.next().Pos}
	case pytoken.KwContinue:
		return &pyast.Continue{ContinuePos: p.next().Pos}
	case pytoken.KwDel:
		tok := p.next()
		mark := p.sc.exprs.mark()
		for {
			p.sc.exprs.push(p.parsePrimaryTarget())
			if !p.accept(pytoken.COMMA) {
				break
			}
		}
		return &pyast.Delete{DelPos: tok.Pos, Targets: p.sc.exprs.carve(mark)}
	case pytoken.KwRaise:
		tok := p.next()
		r := &pyast.Raise{RaisePos: tok.Pos}
		if !p.at(pytoken.NEWLINE) && !p.at(pytoken.SEMI) && !p.at(pytoken.EOF) && !p.at(pytoken.DEDENT) {
			r.Exc = p.parseExpr()
			if p.accept(pytoken.KwFrom) {
				r.Cause = p.parseExpr()
			}
		}
		return r
	case pytoken.KwImport:
		return p.parseImport()
	case pytoken.KwFrom:
		return p.parseImportFrom()
	case pytoken.KwGlobal:
		tok := p.next()
		return &pyast.Global{GlobalPos: tok.Pos, Names: p.parseNameList()}
	case pytoken.KwNonlocal:
		tok := p.next()
		return &pyast.Nonlocal{NonlocalPos: tok.Pos, Names: p.parseNameList()}
	case pytoken.KwAssert:
		tok := p.next()
		a := &pyast.Assert{AssertPos: tok.Pos, Cond: p.parseExpr()}
		if p.accept(pytoken.COMMA) {
			a.Msg = p.parseExpr()
		}
		return a
	default:
		return p.parseExprOrAssign()
	}
}

func (p *parser) parseNameList() []string {
	var names []string
	for {
		names = append(names, p.expect(pytoken.NAME).Lit)
		if !p.accept(pytoken.COMMA) {
			break
		}
	}
	return names
}

func (p *parser) parseImport() pyast.Stmt {
	tok := p.next()
	mark := p.sc.aliasPtrs.mark()
	for {
		p.sc.aliasPtrs.push(p.parseAlias(true))
		if !p.accept(pytoken.COMMA) {
			break
		}
	}
	return node(&p.sc.imports, pyast.Import{ImportPos: tok.Pos, Names: p.sc.aliasPtrs.carve(mark)})
}

func (p *parser) parseImportFrom() pyast.Stmt {
	tok := p.next() // from
	level := 0
	for {
		if p.accept(pytoken.DOT) {
			level++
		} else if p.accept(pytoken.ELLIPSIS) {
			level += 3
		} else {
			break
		}
	}
	module := ""
	if p.at(pytoken.NAME) {
		module = p.parseDottedName()
	}
	p.expect(pytoken.KwImport)
	imp := node(&p.sc.froms, pyast.ImportFrom{FromPos: tok.Pos, Module: module, Level: level})
	mark := p.sc.aliasPtrs.mark()
	if p.accept(pytoken.STAR) {
		p.sc.aliasPtrs.push(node(&p.sc.aliases, pyast.Alias{Name: "*"}))
		imp.Names = p.sc.aliasPtrs.carve(mark)
		return imp
	}
	paren := p.accept(pytoken.LPAREN)
	for {
		p.sc.aliasPtrs.push(p.parseAlias(false))
		if !p.accept(pytoken.COMMA) {
			break
		}
		if paren && p.at(pytoken.RPAREN) {
			break
		}
	}
	if paren {
		p.expect(pytoken.RPAREN)
	}
	imp.Names = p.sc.aliasPtrs.carve(mark)
	return imp
}

func (p *parser) parseAlias(dotted bool) *pyast.Alias {
	var name string
	if dotted {
		name = p.parseDottedName()
	} else {
		name = p.expect(pytoken.NAME).Lit
	}
	a := node(&p.sc.aliases, pyast.Alias{Name: name})
	if p.accept(pytoken.KwAs) {
		a.AsName = p.expect(pytoken.NAME).Lit
	}
	return a
}

func (p *parser) parseDottedName() string {
	first := p.expect(pytoken.NAME).Lit
	if !p.at(pytoken.DOT) || p.peekKind(1) != pytoken.NAME {
		return first
	}
	var b strings.Builder
	b.WriteString(first)
	for p.at(pytoken.DOT) && p.peekKind(1) == pytoken.NAME {
		p.next()
		b.WriteByte('.')
		b.WriteString(p.next().Lit)
	}
	return b.String()
}

// parseExprOrAssign parses an expression statement, assignment chain,
// augmented assignment, or annotated assignment.
func (p *parser) parseExprOrAssign() pyast.Stmt {
	first := p.parseExprList()
	switch {
	case p.at(pytoken.ASSIGN):
		mark := p.sc.exprs.mark()
		p.sc.exprs.push(first)
		var value pyast.Expr
		for p.accept(pytoken.ASSIGN) {
			value = p.parseExprListOrYield()
			if p.at(pytoken.ASSIGN) {
				p.sc.exprs.push(value)
			}
		}
		return node(&p.sc.assigns, pyast.Assign{Targets: p.sc.exprs.carve(mark), Value: value})
	case p.at(pytoken.COLON):
		p.next()
		ann := p.parseExpr()
		st := &pyast.AnnAssign{Target: first, Annotation: ann}
		if p.accept(pytoken.ASSIGN) {
			st.Value = p.parseExprListOrYield()
		}
		return st
	case isAugAssign(p.cur().Kind):
		op := p.next().Kind
		return &pyast.AugAssign{Target: first, Op: op, Value: p.parseExprListOrYield()}
	default:
		return node(&p.sc.exprStmts, pyast.ExprStmt{Value: first})
	}
}

func isAugAssign(k pytoken.Kind) bool {
	switch k {
	case pytoken.PLUSEQ, pytoken.MINUSEQ, pytoken.STAREQ, pytoken.SLASHEQ,
		pytoken.DOUBLESLASHEQ, pytoken.PERCENTEQ, pytoken.AMPEREQ,
		pytoken.PIPEEQ, pytoken.CARETEQ, pytoken.LSHIFTEQ,
		pytoken.RSHIFTEQ, pytoken.DOUBLESTAREQ, pytoken.ATEQ:
		return true
	}
	return false
}

func (p *parser) parseExprListOrYield() pyast.Expr {
	if p.at(pytoken.KwYield) {
		return p.parseYield()
	}
	return p.parseExprList()
}

// parseExprList parses `expr (, expr)* [,]`, returning a Tuple when more
// than one element (or a trailing comma) is present.
func (p *parser) parseExprList() pyast.Expr {
	first := p.parseStarOrExpr()
	if !p.at(pytoken.COMMA) {
		return first
	}
	mark := p.sc.exprs.mark()
	p.sc.exprs.push(first)
	for p.accept(pytoken.COMMA) {
		if p.exprListEnds() {
			break
		}
		p.sc.exprs.push(p.parseStarOrExpr())
	}
	return &pyast.Tuple{TuplePos: first.Pos(), Elts: p.sc.exprs.carve(mark)}
}

func (p *parser) exprListEnds() bool {
	switch p.cur().Kind {
	case pytoken.NEWLINE, pytoken.EOF, pytoken.SEMI, pytoken.ASSIGN,
		pytoken.RPAREN, pytoken.RBRACKET, pytoken.RBRACE, pytoken.COLON,
		pytoken.DEDENT:
		return true
	}
	return false
}

func (p *parser) parseStarOrExpr() pyast.Expr {
	if p.at(pytoken.STAR) {
		tok := p.next()
		return &pyast.Starred{StarPos: tok.Pos, Value: p.parseExpr()}
	}
	return p.parseExpr()
}

// parseTargetList parses a for-loop target (possibly a tuple).
func (p *parser) parseTargetList() pyast.Expr {
	first := p.parseStarOrTarget()
	if !p.at(pytoken.COMMA) {
		return first
	}
	mark := p.sc.exprs.mark()
	p.sc.exprs.push(first)
	for p.accept(pytoken.COMMA) {
		if p.at(pytoken.KwIn) {
			break
		}
		p.sc.exprs.push(p.parseStarOrTarget())
	}
	return &pyast.Tuple{TuplePos: first.Pos(), Elts: p.sc.exprs.carve(mark)}
}

func (p *parser) parseStarOrTarget() pyast.Expr {
	if p.at(pytoken.STAR) {
		tok := p.next()
		return &pyast.Starred{StarPos: tok.Pos, Value: p.parsePrimaryTarget()}
	}
	return p.parsePrimaryTarget()
}

// parsePrimaryTarget parses an assignable primary: name, attribute,
// subscript, or a parenthesized/bracketed target list.
func (p *parser) parsePrimaryTarget() pyast.Expr {
	return p.parsePostfix(p.parseAtom())
}
