package propgraph

import "sync"

// Sym is a dense index into an Interner's symbol table. Representation
// strings are interned once per table; everything downstream of the
// front-end (graph union, constraint generation, seed matching) works on
// these integers instead of hashing and copying the strings themselves.
type Sym uint32

// Interner is an append-only string ↔ Sym table. IDs are assigned in
// first-seen order, so a table populated by a deterministic sequence of
// Intern calls always assigns the same IDs — the property the pipeline
// relies on for bitwise-reproducible results at any worker count.
//
// All methods are safe for concurrent use. Because the table is
// append-only, a snapshot taken with Strings stays valid (and immutable)
// while other goroutines keep interning.
type Interner struct {
	mu    sync.RWMutex
	index map[string]Sym
	strs  []string
	bytes int64
}

// NewInterner returns an empty symbol table.
func NewInterner() *Interner { return newInterner(0) }

// newInterner returns an empty symbol table with room for n symbols.
func newInterner(n int) *Interner {
	return &Interner{index: make(map[string]Sym, n), strs: make([]string, 0, n)}
}

// Intern returns the symbol for s, assigning the next dense ID on first
// sight.
func (t *Interner) Intern(s string) Sym {
	t.mu.RLock()
	id, ok := t.index[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.internLocked(s)
}

// internLocked is Intern for a caller that holds the write lock.
func (t *Interner) internLocked(s string) Sym {
	if id, ok := t.index[s]; ok {
		return id
	}
	id := Sym(len(t.strs))
	t.strs = append(t.strs, s)
	t.index[s] = id
	t.bytes += int64(len(s))
	return id
}

// Lookup returns the symbol for s without interning it.
func (t *Interner) Lookup(s string) (Sym, bool) {
	if t == nil {
		return 0, false
	}
	t.mu.RLock()
	id, ok := t.index[s]
	t.mu.RUnlock()
	return id, ok
}

// Str returns the string of a symbol. Out-of-range symbols (from a
// foreign table) return "".
func (t *Interner) Str(id Sym) string {
	if t == nil {
		return ""
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(id) >= len(t.strs) {
		return ""
	}
	return t.strs[id]
}

// Len returns the number of distinct symbols.
func (t *Interner) Len() int {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.strs)
}

// Bytes returns the total length of the distinct strings in the table —
// the footprint of storing each representation exactly once.
func (t *Interner) Bytes() int64 {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.bytes
}

// Strings returns the table in symbol order: Strings()[sym] is the
// string of sym. The returned slice is a stable snapshot — the table is
// append-only, so entries below its length never change — and must not
// be modified by the caller. Hot loops index it directly instead of
// taking the table lock per lookup.
func (t *Interner) Strings() []string {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.strs[:len(t.strs):len(t.strs)]
}

// TranslateFrom interns every symbol of src into t and returns the
// translation array: xlat[localSym] is t's symbol for src's localSym.
// Each distinct string is hashed once per source table, not once per
// occurrence — Union remaps per-event symbols through the array with
// pure integer indexing. The table is locked once for the whole source
// (src is snapshotted first, so translating a table into itself is safe).
func (t *Interner) TranslateFrom(src *Interner) []Sym {
	strs := src.Strings()
	if len(strs) == 0 {
		return nil
	}
	xlat := make([]Sym, len(strs))
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range strs {
		xlat[i] = t.internLocked(s)
	}
	return xlat
}
