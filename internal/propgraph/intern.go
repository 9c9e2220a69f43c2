package propgraph

import (
	"slices"
	"strings"
	"sync"
)

// Sym is a dense index into an Interner's symbol table. Representation
// strings are interned once per table; everything downstream of the
// front-end (graph union, constraint generation, seed matching) works on
// these integers instead of hashing and copying the strings themselves.
type Sym uint32

// Interner is a string ↔ Sym table. IDs are assigned in first-seen order,
// so a table populated by a deterministic sequence of insertions always
// assigns the same IDs — the property the pipeline relies on for
// bitwise-reproducible results at any worker count.
//
// A table comes in one of two forms. A built or decoded graph's is sealed:
// its strings back to back in one blob and the end of each, with no string
// header and no map until Strings or Lookup first asks for them. A union's
// (NewInterner) is open: an append-only slice of strings and the map that
// finds them, grown by TranslateFrom. Interning into a sealed table opens
// it.
//
// All methods are safe for concurrent use. Because a table only ever
// appends, a snapshot taken with Strings stays valid (and immutable) while
// other goroutines keep interning.
type Interner struct {
	mu    sync.RWMutex
	blob  string   // sealed: the strings back to back
	ends  []uint32 // sealed: where each string ends in blob; nil when open
	strs  []string // open, or sealed and asked for its strings
	index map[string]Sym
	bytes int64
}

// NewInterner returns an empty open symbol table.
func NewInterner() *Interner { return &Interner{index: make(map[string]Sym)} }

// sealedGraph is a built or decoded graph and its sealed symbol table,
// which live and die together: one allocation for the two.
type sealedGraph struct {
	g    Graph
	syms Interner
}

// newSealedGraph returns an empty graph whose table is the sealed table
// of the strings in blob, the i-th ending at ends[i].
func newSealedGraph(blob string, ends []uint32) *Graph {
	if ends == nil {
		ends = []uint32{}
	}
	s := &sealedGraph{syms: Interner{blob: blob, ends: ends, bytes: int64(len(blob))}}
	s.g.Syms = &s.syms
	return &s.g
}

// symView is a table's strings as of one moment: immutable below its
// length, read without the lock.
type symView struct {
	blob string
	ends []uint32
	strs []string
}

func (v symView) len() int {
	if v.ends != nil {
		return len(v.ends)
	}
	return len(v.strs)
}

func (v symView) at(i int) string {
	if v.ends == nil {
		return v.strs[i]
	}
	lo := uint32(0)
	if i > 0 {
		lo = v.ends[i-1]
	}
	return v.blob[lo:v.ends[i]]
}

// view returns the table's current strings.
func (t *Interner) view() symView {
	if t == nil {
		return symView{}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return symView{t.blob, t.ends[:len(t.ends):len(t.ends)], t.strs[:len(t.strs):len(t.strs)]}
}

// internLocked returns the symbol for s, assigning the next dense ID on
// first sight; the caller holds the write lock.
func (t *Interner) internLocked(s string) Sym {
	if t.ends != nil {
		t.materializeLocked()
		t.blob, t.ends = "", nil
	}
	if id, ok := t.index[s]; ok {
		return id
	}
	id := Sym(len(t.strs))
	t.strs = append(t.strs, s)
	t.index[s] = id
	t.bytes += int64(len(s))
	return id
}

// materializeLocked gives a sealed table the strings and the map of an
// open one, once; the caller holds the write lock.
func (t *Interner) materializeLocked() {
	if t.index != nil {
		return
	}
	v := symView{blob: t.blob, ends: t.ends}
	t.strs = make([]string, v.len())
	t.index = make(map[string]Sym, v.len())
	for i := range t.strs {
		t.strs[i] = v.at(i)
		t.index[t.strs[i]] = Sym(i)
	}
}

// materialize is materializeLocked for a caller without the lock.
func (t *Interner) materialize() {
	t.mu.RLock()
	done := t.index != nil
	t.mu.RUnlock()
	if !done {
		t.mu.Lock()
		t.materializeLocked()
		t.mu.Unlock()
	}
}

// Lookup returns the symbol for s without interning it.
func (t *Interner) Lookup(s string) (Sym, bool) {
	if t == nil {
		return 0, false
	}
	t.materialize()
	t.mu.RLock()
	id, ok := t.index[s]
	t.mu.RUnlock()
	return id, ok
}

// Str returns the string of a symbol. Out-of-range symbols (from a
// foreign table) return "".
func (t *Interner) Str(id Sym) string {
	v := t.view()
	if int(id) >= v.len() {
		return ""
	}
	return v.at(int(id))
}

// Len returns the number of distinct symbols.
func (t *Interner) Len() int { return t.view().len() }

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
	t.materialize()
	return t.view().strs
}

// TranslateFrom interns every symbol of src into t and returns the
// translation array: xlat[localSym] is t's symbol for src's localSym.
// Each distinct string is hashed once per source table, not once per
// occurrence — Union remaps per-event symbols through the array with
// pure integer indexing. The table is locked once for the whole source
// (src is snapshotted first, so translating a table into itself is safe).
func (t *Interner) TranslateFrom(src *Interner) []Sym {
	v := src.view()
	if v.len() == 0 {
		return nil
	}
	xlat := make([]Sym, v.len())
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range xlat {
		xlat[i] = t.internLocked(v.at(i))
	}
	return xlat
}

// duplicate returns a string the sealed table holds twice, if there is one.
func (t *Interner) duplicate() (string, bool) {
	v := symView{blob: t.blob, ends: t.ends}
	var few [64]int32
	order := few[:0]
	for i := range v.len() {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(v.at(int(a)), v.at(int(b))) })
	for i := 1; i < len(order); i++ {
		if s := v.at(int(order[i])); s == v.at(int(order[i-1])) {
			return s, true
		}
	}
	return "", false
}

// symBuilder assembles a sealed table: a Builder's, reused from one graph
// to the next.
type symBuilder struct {
	index map[string]Sym
	blob  []byte
	ends  []uint32
}

func (b *symBuilder) intern(s string) Sym {
	if id, ok := b.index[s]; ok {
		return id
	}
	id := Sym(len(b.ends))
	b.blob = append(b.blob, s...)
	b.ends = append(b.ends, uint32(len(b.blob)))
	b.index[s] = id
	return id
}

func (b *symBuilder) reset() {
	clear(b.index)
	b.blob, b.ends = b.blob[:0], b.ends[:0]
}
