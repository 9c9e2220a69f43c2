// Package pyast defines the abstract syntax tree for the Python subset
// analyzed by Seldon.
//
// The node set mirrors CPython's ast module for the constructs the
// propagation-graph builder cares about: modules, function and class
// definitions (with decorators), assignments, control flow, imports, and
// the full expression grammar including calls, attribute and subscript
// access, comprehensions, and lambdas.
package pyast

import "seldon/internal/pytoken"

// Node is implemented by every AST node.
type Node interface {
	Pos() pytoken.Pos
}

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// ---------------------------------------------------------------------------
// Module

// Module is the root of a parsed file.
type Module struct {
	File string // file name as given to the parser
	Body []Stmt
}

func (m *Module) Pos() pytoken.Pos {
	if len(m.Body) > 0 {
		return m.Body[0].Pos()
	}
	return pytoken.Pos{Line: 1}
}

// ---------------------------------------------------------------------------
// Statements

// FunctionDef is a def statement (async or not).
type FunctionDef struct {
	DefPos     pytoken.Pos
	Name       string
	Params     []*Param
	Decorators []Expr
	Returns    Expr // annotation after ->, or nil
	Body       []Stmt
	Async      bool
}

// Param is a single formal parameter of a function or lambda.
type Param struct {
	NamePos    pytoken.Pos
	Name       string
	Annotation Expr // or nil
	Default    Expr // or nil
	Star       bool // *args
	DoubleStar bool // **kwargs
}

func (p *Param) Pos() pytoken.Pos { return p.NamePos }

// ClassDef is a class statement.
type ClassDef struct {
	ClassPos   pytoken.Pos
	Name       string
	Bases      []Expr // positional base classes
	Keywords   []*Keyword
	Decorators []Expr
	Body       []Stmt
}

// Return is a return statement.
type Return struct {
	ReturnPos pytoken.Pos
	Value     Expr // or nil
}

// Delete is a del statement.
type Delete struct {
	DelPos  pytoken.Pos
	Targets []Expr
}

// Assign is `targets = ... = value`. Chained assignments keep every target.
type Assign struct {
	Targets []Expr // at least one
	Value   Expr
}

// AugAssign is an augmented assignment such as `x += y`.
type AugAssign struct {
	Target Expr
	Op     pytoken.Kind // the augmented operator token, e.g. PLUSEQ
	Value  Expr
}

// AnnAssign is an annotated assignment such as `x: int = y`.
type AnnAssign struct {
	Target     Expr
	Annotation Expr
	Value      Expr // or nil
}

// For is a for loop (async or not).
type For struct {
	ForPos pytoken.Pos
	Target Expr
	Iter   Expr
	Body   []Stmt
	Else   []Stmt
	Async  bool
}

// While is a while loop.
type While struct {
	WhilePos pytoken.Pos
	Cond     Expr
	Body     []Stmt
	Else     []Stmt
}

// If is an if/elif/else chain; elif is represented as a nested If in Else.
type If struct {
	IfPos pytoken.Pos
	Cond  Expr
	Body  []Stmt
	Else  []Stmt
}

// With is a with statement (async or not).
type With struct {
	WithPos pytoken.Pos
	Items   []*WithItem
	Body    []Stmt
	Async   bool
}

// WithItem is one `ctx as var` clause of a with statement.
type WithItem struct {
	Context Expr
	Vars    Expr // or nil
}

// Raise is a raise statement.
type Raise struct {
	RaisePos pytoken.Pos
	Exc      Expr // or nil
	Cause    Expr // raise X from Cause, or nil
}

// Try is a try/except/else/finally statement.
type Try struct {
	TryPos   pytoken.Pos
	Body     []Stmt
	Handlers []*ExceptHandler
	Else     []Stmt
	Finally  []Stmt
}

// ExceptHandler is one except clause.
type ExceptHandler struct {
	ExceptPos pytoken.Pos
	Type      Expr   // or nil for bare except
	Name      string // `as name`, or ""
	Body      []Stmt
}

// Assert is an assert statement.
type Assert struct {
	AssertPos pytoken.Pos
	Cond      Expr
	Msg       Expr // or nil
}

// Import is `import a.b as c, d`.
type Import struct {
	ImportPos pytoken.Pos
	Names     []*Alias
}

// ImportFrom is `from mod import a as b, c` (Level counts leading dots).
type ImportFrom struct {
	FromPos pytoken.Pos
	Module  string // "" for `from . import x`
	Names   []*Alias
	Level   int
}

// Alias is one imported name with its optional rebinding.
type Alias struct {
	Name   string // dotted path, or "*"
	AsName string // or ""
}

// Global is a global declaration.
type Global struct {
	GlobalPos pytoken.Pos
	Names     []string
}

// Nonlocal is a nonlocal declaration.
type Nonlocal struct {
	NonlocalPos pytoken.Pos
	Names       []string
}

// ExprStmt is an expression evaluated for effect (e.g. a bare call).
type ExprStmt struct {
	Value Expr
}

// Pass is a pass statement.
type Pass struct{ PassPos pytoken.Pos }

// Break is a break statement.
type Break struct{ BreakPos pytoken.Pos }

// Continue is a continue statement.
type Continue struct{ ContinuePos pytoken.Pos }

func (s *FunctionDef) Pos() pytoken.Pos { return s.DefPos }
func (s *ClassDef) Pos() pytoken.Pos    { return s.ClassPos }
func (s *Return) Pos() pytoken.Pos      { return s.ReturnPos }
func (s *Delete) Pos() pytoken.Pos      { return s.DelPos }
func (s *Assign) Pos() pytoken.Pos      { return s.Targets[0].Pos() }
func (s *AugAssign) Pos() pytoken.Pos   { return s.Target.Pos() }
func (s *AnnAssign) Pos() pytoken.Pos   { return s.Target.Pos() }
func (s *For) Pos() pytoken.Pos         { return s.ForPos }
func (s *While) Pos() pytoken.Pos       { return s.WhilePos }
func (s *If) Pos() pytoken.Pos          { return s.IfPos }
func (s *With) Pos() pytoken.Pos        { return s.WithPos }
func (s *Raise) Pos() pytoken.Pos       { return s.RaisePos }
func (s *Try) Pos() pytoken.Pos         { return s.TryPos }
func (s *Assert) Pos() pytoken.Pos      { return s.AssertPos }
func (s *Import) Pos() pytoken.Pos      { return s.ImportPos }
func (s *ImportFrom) Pos() pytoken.Pos  { return s.FromPos }
func (s *Global) Pos() pytoken.Pos      { return s.GlobalPos }
func (s *Nonlocal) Pos() pytoken.Pos    { return s.NonlocalPos }
func (s *ExprStmt) Pos() pytoken.Pos    { return s.Value.Pos() }
func (s *Pass) Pos() pytoken.Pos        { return s.PassPos }
func (s *Break) Pos() pytoken.Pos       { return s.BreakPos }
func (s *Continue) Pos() pytoken.Pos    { return s.ContinuePos }

func (*FunctionDef) stmtNode() {}
func (*ClassDef) stmtNode()    {}
func (*Return) stmtNode()      {}
func (*Delete) stmtNode()      {}
func (*Assign) stmtNode()      {}
func (*AugAssign) stmtNode()   {}
func (*AnnAssign) stmtNode()   {}
func (*For) stmtNode()         {}
func (*While) stmtNode()       {}
func (*If) stmtNode()          {}
func (*With) stmtNode()        {}
func (*Raise) stmtNode()       {}
func (*Try) stmtNode()         {}
func (*Assert) stmtNode()      {}
func (*Import) stmtNode()      {}
func (*ImportFrom) stmtNode()  {}
func (*Global) stmtNode()      {}
func (*Nonlocal) stmtNode()    {}
func (*ExprStmt) stmtNode()    {}
func (*Pass) stmtNode()        {}
func (*Break) stmtNode()       {}
func (*Continue) stmtNode()    {}

// ---------------------------------------------------------------------------
// Expressions

// Name is an identifier reference.
type Name struct {
	NamePos pytoken.Pos
	Ident   string
}

// Num is a numeric literal (verbatim text).
type Num struct {
	NumPos pytoken.Pos
	Lit    string
}

// Str is a string literal; adjacent literals are concatenated by the parser.
type Str struct {
	StrPos pytoken.Pos
	Lit    string // verbatim, including prefix and quotes of the first part
}

// JoinedStr is an f-string with interpolated expressions: information
// flows from every Value into the resulting string.
type JoinedStr struct {
	StrPos pytoken.Pos
	Lit    string // the verbatim literal
	Values []Expr // the parsed {…} interpolations, in order
}

// NameConst is True, False, or None.
type NameConst struct {
	ConstPos pytoken.Pos
	Value    string // "True" | "False" | "None"
}

// EllipsisLit is the `...` literal.
type EllipsisLit struct{ DotsPos pytoken.Pos }

// Attribute is `value.attr`.
type Attribute struct {
	Value   Expr
	Attr    string
	AttrPos pytoken.Pos
	Start   pytoken.Pos // Value's start (see startOr)
}

// Subscript is `value[index]`.
type Subscript struct {
	Value Expr
	Index Expr        // a Tuple for multi-dim, a Slice for slicing
	Start pytoken.Pos // Value's start (see startOr)
}

// Slice is `lo:hi:step` inside a subscript. Any field may be nil.
type Slice struct {
	ColonPos     pytoken.Pos
	Lo, Hi, Step Expr
}

// Call is a function or method invocation.
type Call struct {
	Func     Expr
	Args     []Expr
	Keywords []*Keyword
	Start    pytoken.Pos // Func's start (see startOr)
}

// Keyword is a `name=value` (or `**value` when Name is "") call argument.
type Keyword struct {
	NamePos pytoken.Pos
	Name    string // "" means **value
	Value   Expr
}

// BinOp is a binary arithmetic/bitwise operation.
type BinOp struct {
	Left  Expr
	Op    pytoken.Kind
	Right Expr
	Start pytoken.Pos // Left's start (see startOr)
}

// BoolOp is an `and`/`or` chain with two or more operands.
type BoolOp struct {
	Op     pytoken.Kind // KwAnd or KwOr
	Values []Expr
}

// UnaryOp is a unary operation (-x, +x, ~x, not x).
type UnaryOp struct {
	OpPos   pytoken.Pos
	Op      pytoken.Kind
	Operand Expr
}

// Compare is a comparison chain: Left Op0 C0 Op1 C1 ...
type Compare struct {
	Left        Expr
	Ops         []CompareOp
	Comparators []Expr
}

// CompareOp is a comparison operator, including `not in` and `is not`.
type CompareOp struct {
	Kind pytoken.Kind // LT, GT, ..., KwIn, KwIs
	Not  bool         // true for `not in` / `is not`
}

// IfExp is the conditional expression `a if cond else b`.
type IfExp struct {
	Cond, Then, Else Expr
}

// Lambda is a lambda expression.
type Lambda struct {
	LambdaPos pytoken.Pos
	Params    []*Param
	Body      Expr
}

// Tuple is a (possibly parenthesized) tuple display.
type Tuple struct {
	TuplePos pytoken.Pos
	Elts     []Expr
}

// List is a list display.
type List struct {
	ListPos pytoken.Pos
	Elts    []Expr
}

// Set is a set display.
type Set struct {
	SetPos pytoken.Pos
	Elts   []Expr
}

// Dict is a dict display; a nil key marks a `**mapping` expansion.
type Dict struct {
	DictPos pytoken.Pos
	Keys    []Expr
	Values  []Expr
}

// Comp is a comprehension (list/set/dict/generator).
type Comp struct {
	CompPos pytoken.Pos
	Kind    CompKind
	Elt     Expr // element, or key for dict comps
	Value   Expr // value for dict comps, nil otherwise
	Clauses []*CompClause
}

// CompKind distinguishes the comprehension forms.
type CompKind int

// Comprehension kinds.
const (
	ListComp CompKind = iota
	SetComp
	DictComp
	GeneratorExp
)

// CompClause is one `for target in iter [if cond]*` clause.
type CompClause struct {
	Target Expr
	Iter   Expr
	Ifs    []Expr
	Async  bool
}

// Starred is `*value` in a call or assignment context.
type Starred struct {
	StarPos pytoken.Pos
	Value   Expr
}

// Await is an `await value` expression.
type Await struct {
	AwaitPos pytoken.Pos
	Value    Expr
}

// Yield is a `yield [value]` or `yield from value` expression.
type Yield struct {
	YieldPos pytoken.Pos
	Value    Expr // or nil
	From     bool
}

// NamedExpr is the walrus `target := value`.
type NamedExpr struct {
	Target Expr
	Value  Expr
}

func (e *Name) Pos() pytoken.Pos        { return e.NamePos }
func (e *Num) Pos() pytoken.Pos         { return e.NumPos }
func (e *Str) Pos() pytoken.Pos         { return e.StrPos }
func (e *JoinedStr) Pos() pytoken.Pos   { return e.StrPos }
func (e *NameConst) Pos() pytoken.Pos   { return e.ConstPos }
func (e *EllipsisLit) Pos() pytoken.Pos { return e.DotsPos }
func (e *Attribute) Pos() pytoken.Pos   { return startOr(e.Start, e.Value) }
func (e *Subscript) Pos() pytoken.Pos   { return startOr(e.Start, e.Value) }
func (e *Slice) Pos() pytoken.Pos       { return e.ColonPos }
func (e *Call) Pos() pytoken.Pos        { return startOr(e.Start, e.Func) }
func (e *BinOp) Pos() pytoken.Pos       { return startOr(e.Start, e.Left) }
func (e *BoolOp) Pos() pytoken.Pos      { return e.Values[0].Pos() }
func (e *UnaryOp) Pos() pytoken.Pos     { return e.OpPos }
func (e *Compare) Pos() pytoken.Pos     { return e.Left.Pos() }
func (e *IfExp) Pos() pytoken.Pos       { return e.Then.Pos() }
func (e *Lambda) Pos() pytoken.Pos      { return e.LambdaPos }
func (e *Tuple) Pos() pytoken.Pos       { return e.TuplePos }
func (e *List) Pos() pytoken.Pos        { return e.ListPos }
func (e *Set) Pos() pytoken.Pos         { return e.SetPos }
func (e *Dict) Pos() pytoken.Pos        { return e.DictPos }
func (e *Comp) Pos() pytoken.Pos        { return e.CompPos }
func (e *Starred) Pos() pytoken.Pos     { return e.StarPos }
func (e *Await) Pos() pytoken.Pos       { return e.AwaitPos }
func (e *Yield) Pos() pytoken.Pos       { return e.YieldPos }
func (e *NamedExpr) Pos() pytoken.Pos   { return e.Target.Pos() }

// startOr returns start, the position the parser recorded for a node that
// begins with its leftmost operand, or that operand's position in a node
// made without one. Calls, attributes, subscripts and binary operations
// chain to the left without bound (f()()()…, 1 + 1 + …), so their Pos
// must not walk the chain; every other Pos that defers to a child reaches
// a token or one of these within the parser's nesting bound.
func startOr(start pytoken.Pos, left Node) pytoken.Pos {
	if start != (pytoken.Pos{}) {
		return start
	}
	return left.Pos()
}

func (*Name) exprNode()        {}
func (*Num) exprNode()         {}
func (*Str) exprNode()         {}
func (*JoinedStr) exprNode()   {}
func (*NameConst) exprNode()   {}
func (*EllipsisLit) exprNode() {}
func (*Attribute) exprNode()   {}
func (*Subscript) exprNode()   {}
func (*Slice) exprNode()       {}
func (*Call) exprNode()        {}
func (*BinOp) exprNode()       {}
func (*BoolOp) exprNode()      {}
func (*UnaryOp) exprNode()     {}
func (*Compare) exprNode()     {}
func (*IfExp) exprNode()       {}
func (*Lambda) exprNode()      {}
func (*Tuple) exprNode()       {}
func (*List) exprNode()        {}
func (*Set) exprNode()         {}
func (*Dict) exprNode()        {}
func (*Comp) exprNode()        {}
func (*Starred) exprNode()     {}
func (*Await) exprNode()       {}
func (*Yield) exprNode()       {}
func (*NamedExpr) exprNode()   {}
