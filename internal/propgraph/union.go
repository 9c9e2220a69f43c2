package propgraph

import (
	"slices"

	"seldon/internal/par"
)

// Union builds the global propagation graph of a dataset: the disjoint
// union of the per-program graphs (§4, "Learning over a Global Propagation
// Graph"). Event IDs are renumbered; inputs are not modified.
//
// Symbols are remapped from each input's table into the union's global
// table through a per-graph translation array (each distinct string is
// hashed once per input, occurrences are pure integer indexing), and the
// global IDs are assigned in first-seen order over the inputs — so a
// sorted input order yields a deterministic global table.
//
// Union is a UnionBuilder with no inputs yet that is handed all of them in
// one edit, so every array is allocated at its exact size; the copy itself
// is the builder's (see UnionBuilder). The result is byte-identical to
// re-adding every event and edge to a Builder through AddEvent, AddEdge and
// AddEdgeArg.
func Union(graphs ...*Graph) *Graph {
	b := NewUnionBuilder()
	b.Splice([]UnionEdit{{Ins: graphs}})
	return b.g
}

// UnionBuilder holds a disjoint union together with where each of its
// inputs sits in it, so that the union can be edited: inputs appended one
// at a time as they arrive (a coordinator folding shard slices into the
// global graph, where Union's all-inputs-up-front contract would force a
// barrier), or replaced, inserted and removed in the middle (a learning
// session whose corpus changed in six files out of six thousand).
//
// Equivalence contract: after any sequence of edits the built graph is
// byte-identical (AppendBinary) to Union over the inputs it then has,
// because every edit, the first included, is the same routine, Splice.
// Its sequential part ends with symbol translation — TranslateFrom per
// new input, in order, is what defines first-seen numbering, and an edit
// in the middle is refused when it would number differently. Everything
// after that writes to places fixed by prefix sums over sizes counted
// beforehand: each new input's file names, representations, successors,
// predecessors, labels and label arguments are appended to the union's
// arrays whole, at offsets fixed before anything is copied, so the inputs
// can be copied by several goroutines and land exactly where one goroutine
// would have put them. The inputs are well-formed
// graphs (edges deduplicated, no self-loops, predecessors ascending,
// sorted labels only on edges — DecodeBinary rejects anything else) and
// the union is disjoint, so adjacency is copied in bulk with both
// endpoints offset, without AddEdge's duplicate scan, and labels, which
// are addressed by successor position, are copied as they are.
//
// The inputs that an edit keeps are not copied again. Those behind the
// first edited position move: their events shift along the union's one
// event table by the difference in events before them, and the event IDs
// their adjacency holds move by the same constant. What a replaced input
// occupied in the other arrays stays behind as dead space until it
// amounts to a share of the union (unionDeadShare), from where Splice
// asks for a rebuild instead.
type UnionBuilder struct {
	g *Graph
	// inputs lists the union's inputs in order; spare is scratch for the
	// inputs behind an edit while the list is rewritten. nsyms is the size
	// of the symbol table as of the last edit.
	inputs, spare []unionInput
	nsyms         int
	// live counts the events of the current inputs, dead those of inputs
	// since removed, whose arrays are still held.
	live, dead int

	// The edit under way, shared by its goroutines; the slices are reused
	// from one edit to the next, so that the Add of one small graph
	// allocates only its translation array.
	fresh []unionFresh // the inputs to copy in, and one entry of totals
	segs  []unionSeg
	base  unionFresh // where this copy begins in each of the graph's arrays
}

// UnionEdit replaces the Del inputs of a union from input At on by the
// graphs Ins, in order: an insertion when Del is 0, a removal when Ins is
// empty. The graphs are not modified and must not change afterwards
// (their adjacency is copied, their symbol tables only read).
type UnionEdit struct {
	At, Del int
	Ins     []*Graph
}

// unionInput is one input of the union: the ID of its first event and
// its number of events, the size of the symbol table before it was
// translated (so it introduced the symbols from symLo up to the next
// input's symLo), and its range of the union's successor, predecessor and
// label arrays, which run parallel; the event IDs of the first two move
// with it.
type unionInput struct {
	at, n, symLo int
	edges        span
}

// unionFresh is an input being copied in: its place in the input list,
// its sizes, and where its share of each array begins.
type unionFresh struct {
	g     *Graph
	xlat  []Sym
	in    int
	symLo int
	// Events, file names, representation slots, edges (successors,
	// predecessors and labels alike) and label arguments.
	ev, file, rep, edge, arg int
}

// unionSeg is a run of kept inputs whose events move together: the
// events [lo, hi) as numbered before the edit, and how far they move.
type unionSeg struct{ lo, hi, d int }

// NewUnionBuilder returns a builder holding an empty union.
func NewUnionBuilder() *UnionBuilder {
	return &UnionBuilder{g: &Graph{Syms: NewInterner()}}
}

// Add appends the graphs of src to the union, in order and in one edit.
// They are not modified and must not change afterwards.
func (b *UnionBuilder) Add(src ...*Graph) {
	b.Splice([]UnionEdit{{At: len(b.inputs), Ins: src}})
}

// Graph returns the union built so far. The builder retains it; an edit
// changes the same graph in place, so what was read from it before —
// events, adjacency, IDs — is only good until the next one.
func (b *UnionBuilder) Graph() *Graph { return b.g }

// unionFanoutEvents is the size of a copy, in events, from which its
// inputs are dealt to GOMAXPROCS goroutines; below it a goroutine costs
// more than the events it would copy. The unit dealt is an input, so the
// Add of one graph has one worker however many processors there are, and
// never starts a goroutine.
const unionFanoutEvents = 4096

// unionDeadShare is the share of dead events, as 1/unionDeadShare of the
// live ones, past which Splice refuses and the caller builds the union
// anew in exact arrays. Dead space costs memory, not time — nothing walks
// it — so the bound is a memory bound: with arrays grown by a sixteenth
// (grow) a standing union holds at most 1/8 + 1/16 more than a fresh one,
// ≈ 1.4 MB on the 7.6 MB of a 6000-file corpus. A six-file edit kills
// 0.1 % of the events, so the share is reached after ≈ 125 edits none of
// which renumbered a symbol; on the benchmark's edit stream, where one edit in
// seven does and rebuilds the union anyway, it never is — 200 re-learns
// patched 169 times and rebuilt 31 times at 1/4, 1/8 and 1/32 alike, in
// the same time. A session whose vocabulary is settled is where it acts
// (TestRandomEditsOracle: every ≈ 20th edit at 300 files), and there a
// rebuild every 125 re-learns costs a quarter of a millisecond each.
const unionDeadShare = 8

// unionDeadFloor is the number of dead events below which their share
// does not matter: they hold some 20 KB, and a union small enough for
// that to be an eighth of it is rebuilt in well under a millisecond
// anyway, which is no reason to rebuild it at every other edit.
const unionDeadFloor = 1024

// grow extends s by n elements to be written. A slice without room is
// reallocated at exactly its new length when it was empty (Union, which
// knows its totals) and with a sixteenth to spare otherwise, so that a
// stream of edits reallocates a logarithmic number of times and a standing
// union never holds more than that share unused.
func grow[T any](s []T, n int) []T {
	need := len(s) + n
	if need > cap(s) {
		c := need
		if len(s) > 0 {
			c += need / 16
		}
		s = append(make([]T, 0, c), s...)
	}
	return s[:need]
}

// Splice applies the edits, which must be in ascending order of At and
// must not overlap, and returns "". It returns the reason instead when
// the caller has to build the union anew, in a new builder, this one
// being of no further use: "numbering" when first-seen symbol numbering
// over the new inputs would differ from the table's — an input that
// introduced symbols goes without the same ones coming in the same order
// in its place, or a new input in the middle brings one that a later
// input introduced or nobody did; appending never does — and "compaction"
// when the dead space has reached its share.
func (b *UnionBuilder) Splice(edits []UnionEdit) (rebuild string) {
	if b.dead > unionDeadFloor && b.dead*unionDeadShare > b.live {
		return "compaction"
	}
	if !b.translate(edits) {
		return "numbering"
	}
	b.relocate(edits)
	b.copyFresh()
	return ""
}

// symsBefore is the size of the symbol table before input i added to it.
func (b *UnionBuilder) symsBefore(i int) int {
	if i < len(b.inputs) {
		return b.inputs[i].symLo
	}
	return b.nsyms
}

// translate is the sequential part of an edit: the order of translation
// is the numbering of symbols. Every new input is translated, its sizes
// counted on the way, and checked to introduce exactly the symbols the
// inputs it replaces did: a symbol is fine when an earlier input has it,
// or when it is the next of the replaced inputs' or, at the end of the
// union, the next new one.
func (b *UnionBuilder) translate(edits []UnionEdit) bool {
	b.fresh = b.fresh[:0]
	for _, e := range edits {
		next, limit := b.symsBefore(e.At), b.symsBefore(e.At+e.Del)
		open := e.At+e.Del >= len(b.inputs)
		for _, src := range e.Ins {
			f := unionFresh{g: src, xlat: b.g.Syms.TranslateFrom(src.Syms), symLo: next,
				ev: len(src.Events), file: len(src.files), rep: len(src.reps), edge: len(src.succ), arg: len(src.args)}
			for _, sym := range f.xlat {
				switch {
				case int(sym) < next:
				case int(sym) == next && (next < limit || open):
					next++
				default:
					return false
				}
			}
			b.fresh = append(b.fresh, f)
		}
		if next < limit {
			return false
		}
		if open {
			b.nsyms = next
		}
	}
	return true
}

// relocate rewrites the input list for the edits and moves what the kept
// inputs behind the first edit have in the graph: their events and the
// event IDs their adjacency holds. The slots of the new inputs are left
// for copyFresh to fill.
func (b *UnionBuilder) relocate(edits []UnionEdit) {
	if len(edits) == 0 {
		return
	}
	g := b.g
	first := edits[0].At
	old := append(b.spare[:0], b.inputs[first:]...)
	b.inputs = b.inputs[:first]
	b.segs = b.segs[:0]
	at := len(g.Events) // the ID the next input's first event gets
	if len(old) > 0 {
		at = old[0].at
	}
	keep := func(lo, hi int) {
		if lo >= hi {
			return
		}
		d := at - old[lo].at
		b.segs = append(b.segs, unionSeg{old[lo].at, old[hi-1].at + old[hi-1].n, d})
		for _, in := range old[lo:hi] {
			if d != 0 {
				for i := in.edges.lo; i < in.edges.hi; i++ {
					g.succ[i] += d
					g.pred[i] += d
				}
			}
			in.at += d
			b.inputs = append(b.inputs, in)
			at += in.n
		}
	}
	k, fi := 0, 0 // the next old input (from first on), the next fresh one
	for _, e := range edits {
		keep(k, e.At-first)
		for range e.Ins {
			f := &b.fresh[fi]
			f.in = len(b.inputs)
			b.inputs = append(b.inputs, unionInput{at: at, n: f.ev, symLo: f.symLo})
			at += f.ev
			b.live += f.ev
			fi++
		}
		k = e.At - first + e.Del
		for _, in := range old[e.At-first : k] {
			b.live -= in.n
			b.dead += in.n
		}
	}
	keep(k, len(old))
	b.spare = old

	g.Events = moveSegs(g.Events, b.segs, at)
}

// moveSegs resizes a per-event table to n events and moves the slots of
// every segment by its distance, in place. Segments are in ascending
// order and so are their destinations, so one that moves down never lands
// on a segment before it that has yet to move up, nor the other way
// round: all that move down go first, front to back, then all that move
// up, back to front.
func moveSegs[T any](tab []T, segs []unionSeg, n int) []T {
	was := len(tab)
	tab = slices.Grow(tab, max(n-was, 0))[:max(n, was)]
	for _, s := range segs {
		if s.d < 0 {
			copy(tab[s.lo+s.d:], tab[s.lo:s.hi])
		}
	}
	for i := len(segs) - 1; i >= 0; i-- {
		if s := segs[i]; s.d > 0 {
			copy(tab[s.lo+s.d:], tab[s.lo:s.hi])
		}
	}
	clear(tab[n:])
	return tab[:n]
}

// copyFresh grows the graph's arrays for the new inputs and copies them in.
func (b *UnionBuilder) copyFresh() {
	g := b.g
	b.fresh = append(b.fresh, unionFresh{})
	// From here on a fresh entry's sizes are its offsets into this copy.
	var sum unionFresh
	for i := range b.fresh {
		f := &b.fresh[i]
		f.file, sum.file = sum.file, sum.file+f.file
		f.rep, sum.rep = sum.rep, sum.rep+f.rep
		f.edge, sum.edge = sum.edge, sum.edge+f.edge
		f.arg, sum.arg = sum.arg, sum.arg+f.arg
		sum.ev += f.ev
	}
	b.base = unionFresh{file: len(g.files), rep: len(g.reps), edge: len(g.succ), arg: len(g.args)}
	g.files = grow(g.files, sum.file)
	g.reps = grow(g.reps, sum.rep)
	g.succ = grow(g.succ, sum.edge)
	g.pred = grow(g.pred, sum.edge)
	g.lab = grow(g.lab, sum.edge)
	g.args = grow(g.args, sum.arg)

	// Every event slot and every element of the arrays is written by
	// exactly one input, so what an input writes is fixed by its offsets,
	// never by scheduling.
	workers := 1
	if sum.ev >= unionFanoutEvents {
		workers = 0
	}
	par.For(workers, len(b.fresh)-1, b.copyInput)

	// Let go of the inputs.
	clear(b.fresh)
}

// copyInput copies fresh input n: its events, then each of its arrays
// whole, event IDs offset by where the input's events begin and ranges by
// where its part of the array does.
func (b *UnionBuilder) copyInput(_, n int) {
	g := b.g
	f := &b.fresh[n]
	in := &b.inputs[f.in]
	src, at := f.g, in.at // at: the union's ID of the input's event 0
	file, rep := b.base.file+f.file, b.base.rep+f.rep
	edge, arg := b.base.edge+f.edge, b.base.arg+f.arg
	for i, e := range src.Events {
		e.file += int32(file)
		e.reps = e.reps.shift(uint32(rep))
		e.succ = e.succ.shift(uint32(edge))
		e.pred = e.pred.shift(uint32(edge))
		g.Events[at+i] = e
	}
	copy(g.files[file:], src.files)
	for i, s := range src.reps {
		g.reps[rep+i] = f.xlat[s]
	}
	succ, pred := g.succ[edge:edge+len(src.succ)], g.pred[edge:edge+len(src.pred)]
	for i, dst := range src.succ {
		succ[i] = at + dst
	}
	for i, p := range src.pred {
		pred[i] = at + p
	}
	in.edges = span{uint32(edge), uint32(edge + len(succ))}
	for i, l := range src.lab {
		g.lab[edge+i] = l.shift(uint32(arg))
	}
	copy(g.args[arg:], src.args)
}
