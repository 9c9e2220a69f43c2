package pyparse

import (
	"unsafe"

	"seldon/internal/arena"
	"seldon/internal/pyast"
	"seldon/internal/pytoken"
)

// Retention caps applied by Reset. The largest generated corpus file is
// 1.4 KB and 379 tokens and needs 56 KB of scratch, a third of it the
// token buffer; a sixteen-file /v1/check body needs ten times that. The
// caps keep what such a body grew and let go of anything a rare huge
// input did, so a pooled scratch costs a bounded amount for the life of
// a process.
const (
	maxTokens     = 8192     // 320 KiB of pytoken.Token
	maxArenaBytes = 64 << 10 // per node or list arena
	maxStackLen   = 1024     // per list-building stack
)

// Scratch holds everything a parse allocates in bulk: the scanner with
// its indentation and pending-token stacks, the token buffer, one arena
// per frequent AST node type, and the arenas and staging stacks of the
// node lists. A Scratch is not safe for concurrent use; callers keep one
// per goroutine or pool them. The zero value is ready to use.
type Scratch struct {
	scan pytoken.Scanner
	toks []pytoken.Token

	names     arena.Arena[pyast.Name]
	attrs     arena.Arena[pyast.Attribute]
	calls     arena.Arena[pyast.Call]
	strs      arena.Arena[pyast.Str]
	nums      arena.Arena[pyast.Num]
	consts    arena.Arena[pyast.NameConst]
	lists     arena.Arena[pyast.List]
	keywords  arena.Arena[pyast.Keyword]
	params    arena.Arena[pyast.Param]
	aliases   arena.Arena[pyast.Alias]
	exprStmts arena.Arena[pyast.ExprStmt]
	assigns   arena.Arena[pyast.Assign]
	returns   arena.Arena[pyast.Return]
	imports   arena.Arena[pyast.Import]
	froms     arena.Arena[pyast.ImportFrom]
	funcs     arena.Arena[pyast.FunctionDef]
	ifs       arena.Arena[pyast.If]

	exprs       list[pyast.Expr]
	stmts       list[pyast.Stmt]
	paramPtrs   list[*pyast.Param]
	aliasPtrs   list[*pyast.Alias]
	keywordPtrs list[*pyast.Keyword]
}

// buffers lists the scratch's arenas.
func (s *Scratch) buffers() [22]arena.Buffer {
	return [...]arena.Buffer{
		&s.names, &s.attrs, &s.calls, &s.strs, &s.nums, &s.consts, &s.lists,
		&s.keywords, &s.params, &s.aliases, &s.exprStmts, &s.assigns, &s.returns,
		&s.imports, &s.froms, &s.funcs, &s.ifs,
		&s.exprs, &s.stmts, &s.paramPtrs, &s.aliasPtrs, &s.keywordPtrs,
	}
}

// Reset takes back every token, node and list handed out since the last
// Reset, so modules parsed with the scratch become invalid, and scrubs
// the buffers so the scratch holds no reference to the source text.
// Capacity is kept for the next parse up to the retention caps; Reset
// returns how many buffers it let go for exceeding them. ParseWith
// resets on entry; pools call Reset on release.
func (s *Scratch) Reset() (dropped int) {
	if cap(s.toks) > maxTokens {
		s.toks = nil
		dropped++
	}
	clear(s.toks)
	s.toks = s.toks[:0]
	s.scan.Init("", "") // let go of the source text
	for _, b := range s.buffers() {
		if b.Reset(maxArenaBytes) {
			dropped++
		}
	}
	return dropped
}

// Retained returns the bytes of buffer capacity the scratch holds.
func (s *Scratch) Retained() int {
	n := cap(s.toks) * int(unsafe.Sizeof(pytoken.Token{}))
	for _, b := range s.buffers() {
		n += b.Bytes()
	}
	return n
}

// Poison overwrites every buffer of the scratch with garbage; see
// arena.Arena.Poison. The scratch must be Reset before its next use.
func (s *Scratch) Poison() {
	arena.PoisonSlice(s.toks)
	for _, b := range s.buffers() {
		b.Poison()
	}
}

// list builds the node lists of one element type. The parser pushes
// elements on a staging stack as it meets them — nested lists stack up
// in LIFO order because a nested construct is complete before its parent
// continues — and carve moves the finished run into an exactly sized
// slice from the arena.
type list[T any] struct {
	stack []T
	arena arena.Arena[T]
}

func (l *list[T]) mark() int { return len(l.stack) }

func (l *list[T]) push(v T) { l.stack = append(l.stack, v) }

// carve returns the elements pushed since mark as a list (nil when there
// are none) and pops them.
func (l *list[T]) carve(mark int) []T {
	out := l.arena.Copy(l.stack[mark:])
	l.truncate(mark)
	return out
}

// truncate pops the elements pushed since mark without keeping them; a
// bailout unwinds with it.
func (l *list[T]) truncate(mark int) {
	clear(l.stack[mark:])
	l.stack = l.stack[:mark]
}

// Reset, Bytes and Poison make a list an arena.Buffer.
func (l *list[T]) Reset(maxBytes int) (dropped bool) {
	l.truncate(0)
	if cap(l.stack) > maxStackLen {
		l.stack = nil
		dropped = true
	}
	return l.arena.Reset(maxBytes) || dropped
}

func (l *list[T]) Bytes() int {
	var zero T
	return l.arena.Bytes() + cap(l.stack)*int(unsafe.Sizeof(zero))
}

func (l *list[T]) Poison() {
	arena.PoisonSlice(l.stack)
	l.arena.Poison()
}

// node returns a pointer to a copy of v carved from a.
func node[T any](a *arena.Arena[T], v T) *T {
	p := a.New()
	*p = v
	return p
}
