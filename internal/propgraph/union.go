package propgraph

import (
	"runtime"
	"slices"
	"sync"
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
// Union is a UnionBuilder that is handed all its inputs at once, so every
// arena is allocated at its exact size; the copy itself is the builder's
// (see UnionBuilder). The result is byte-identical to re-adding every
// event and edge through AddEvent, AddEdge and AddEdgeArg.
func Union(graphs ...*Graph) *Graph {
	b := NewUnionBuilder()
	b.add(graphs)
	return b.g
}

// UnionBuilder is the incremental form of Union: graphs are appended one
// at a time and the running disjoint union is available at every step.
// It exists for streaming consumers — a coordinator folding shard slices
// into the global graph as each one arrives — where Union's
// all-inputs-up-front contract would force a barrier.
//
// Equivalence contract: after Add(g1), Add(g2), ..., Add(gN) the built
// graph is byte-identical (AppendBinary) to Union(g1, ..., gN), because
// both are the same routine, add, over one input or over all of them.
// Its sequential part ends with symbol translation — TranslateFrom per
// input, in order, is what defines first-seen numbering. Everything
// after that writes to places fixed by prefix sums over sizes counted
// beforehand: events, representation lists, successor and predecessor
// lists and edge labels are carved from blocks sized before anything is
// copied, so contiguous runs of pieces (unionPiece) can be copied by
// several goroutines and land exactly where one goroutine would have put
// them. The inputs are well-formed graphs (edges deduplicated, no
// self-loops, labels only on edges) and the union is disjoint, so
// adjacency and labels are copied in bulk with both endpoints offset,
// without AddEdge's duplicate scan.
type UnionBuilder struct {
	g *Graph
	// repsCarved and intsCarved count the representation and int slots
	// carved so far, the growth floor of the next chunk of each.
	repsCarved, intsCarved int

	// The add under way, shared by its goroutines; the slices are reused
	// from one add to the next, so that the Add of one small graph — a
	// coordinator folds thousands of them — allocates only its
	// translation array.
	base   int          // len(g.Events) before the copy
	pieces []unionPiece // one entry more than there are pieces
	runs   []int        // contiguous runs of pieces, one per goroutine
	// Blocks carved for this copy; pieces index them by their offsets.
	events               []Event
	reps                 []Sym
	succs, preds, labels []int
}

// NewUnionBuilder returns a builder holding an empty union.
func NewUnionBuilder() *UnionBuilder {
	return &UnionBuilder{g: &Graph{Syms: NewInterner()}}
}

// Add appends src to the union. src is not modified and must not change
// afterwards (its adjacency is copied, its symbol table only read).
func (b *UnionBuilder) Add(src *Graph) { b.add([]*Graph{src}) }

// Graph returns the union built so far. The builder retains it; calling
// Add again grows the same graph.
func (b *UnionBuilder) Graph() *Graph { return b.g }

// unionFanoutEvents is the size of a copy, in events, from which it is
// dealt to GOMAXPROCS goroutines; below it a goroutine costs more than
// the events it would copy. The unit dealt is a piece: an input, or
// unionPieceEvents consecutive events of a larger one (a shard slice
// folded by one Add). The one-file Union of a /v1/check is a single
// piece however many processors there are, and never starts a goroutine.
const (
	unionFanoutEvents = 4096
	unionPieceEvents  = unionFanoutEvents / 2
)

// unionPiece is one unit of a copy: events [lo, hi) of input g. Before
// the prefix sums ev, rep, edge, pred and lab hold its own sizes, after
// them the offset of its first event, representation slot, successor,
// predecessor and label int within the copy's blocks; one entry past the
// last piece holds the totals. An input's labels are counted with its
// first piece.
type unionPiece struct {
	g                        *Graph
	xlat                     []Sym
	lo, hi                   int
	ev, rep, edge, pred, lab int
}

// carve cuts n elements off the front of *chunk. A chunk that is too
// short is first replaced by one of max(n, grown) elements: exactly n
// when nothing was carved before (Union, which knows its totals), at
// least everything carved before otherwise, so that a stream of Adds
// allocates a logarithmic number of chunks.
func carve[T any](chunk *[]T, n, grown int) []T {
	if len(*chunk) < n {
		*chunk = make([]T, max(n, grown))
	}
	out := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return out
}

// add appends the graphs to the union, in order.
func (b *UnionBuilder) add(graphs []*Graph) {
	g := b.g
	b.base = len(g.Events)

	// Sequential: the order of translation is the numbering of symbols.
	b.pieces = slices.Grow(b.pieces[:0], len(graphs)+1)
	labels := 0
	for _, src := range graphs {
		xlat := g.Syms.TranslateFrom(src.Syms)
		for lo, n := 0, len(src.Events); lo < n; lo += unionPieceEvents {
			hi := min(lo+unionPieceEvents, n)
			b.pieces = append(b.pieces, unionPiece{g: src, xlat: xlat, lo: lo, hi: hi, ev: hi - lo})
		}
		labels += len(src.edgeArgs)
	}
	b.pieces = append(b.pieces, unionPiece{})

	// Sizes, then offsets.
	b.cutRuns()
	b.forRuns((*UnionBuilder).size, false)
	var sum unionPiece
	for i := range b.pieces {
		u := &b.pieces[i]
		sum.ev, u.ev = sum.ev+u.ev, sum.ev
		sum.rep, u.rep = sum.rep+u.rep, sum.rep
		sum.edge, u.edge = sum.edge+u.edge, sum.edge
		sum.pred, u.pred = sum.pred+u.pred, sum.pred
		sum.lab, u.lab = sum.lab+u.lab, sum.lab
	}

	b.events = carve(&g.eventChunk, sum.ev, b.base)
	b.reps = carve(&g.symChunk, sum.rep, b.repsCarved)
	ints := carve(&g.intChunk, sum.edge+sum.pred+sum.lab, b.intsCarved)
	b.repsCarved += len(b.reps)
	b.intsCarved += len(ints)
	b.succs, b.preds, b.labels = ints[:sum.edge], ints[sum.edge:sum.edge+sum.pred], ints[sum.edge+sum.pred:]
	g.Events = slices.Grow(g.Events, sum.ev)[:b.base+sum.ev]
	g.succs = slices.Grow(g.succs, sum.ev)[:b.base+sum.ev]
	g.preds = slices.Grow(g.preds, sum.ev)[:b.base+sum.ev]
	if labels > 0 && g.edgeArgs == nil {
		g.edgeArgs = make(map[int64][]int, labels)
	}

	// Every slot of the grown tables and every element of the blocks is
	// written by exactly one piece. Labels go into one table, so one
	// goroutine fills it: the caller's, while the runs copy.
	b.forRuns((*UnionBuilder).copyPiece, true)

	// Let go of the inputs.
	clear(b.pieces)
}

// size counts what piece u will copy.
func (b *UnionBuilder) size(u, _ *unionPiece) {
	for _, e := range u.g.Events[u.lo:u.hi] {
		u.rep += len(e.RepIDs)
	}
	for i := u.lo; i < u.hi; i++ {
		u.edge += len(u.g.succs[i])
		u.pred += len(u.g.preds[i])
	}
	if u.lo == 0 {
		for _, args := range u.g.edgeArgs {
			u.lab += len(args)
		}
	}
}

// copyPiece copies the events of piece u and their adjacency; next is the
// entry after u, whose offsets are where u's part of each block ends.
func (b *UnionBuilder) copyPiece(u, next *unionPiece) {
	g, src := b.g, u.g
	at := b.base + u.ev - u.lo // the union's ID of the input's event 0
	events, reps := b.events[u.ev:next.ev], b.reps[u.rep:next.rep]
	succs, preds := b.succs[u.edge:next.edge], b.preds[u.pred:next.pred]
	for i := u.lo; i < u.hi; i++ {
		e, ne := src.Events[i], &events[i-u.lo]
		*ne = *e
		ne.ID = at + i
		ne.syms = g.Syms
		if k := len(e.RepIDs); k > 0 {
			ne.RepIDs, reps = reps[:k:k], reps[k:]
			for j, s := range e.RepIDs {
				ne.RepIDs[j] = u.xlat[s]
			}
		}
		g.Events[at+i] = ne

		var out, back []int
		if ss := src.succs[i]; len(ss) > 0 {
			out, succs = succs[:len(ss):len(ss)], succs[len(ss):]
			for j, dst := range ss {
				out[j] = at + dst
			}
		}
		// Ascending-source order, the order AddEdge into the union would
		// have produced: the input's own list, sorted.
		if ps := src.preds[i]; len(ps) > 0 {
			back, preds = preds[:len(ps):len(ps)], preds[len(ps):]
			for j, p := range ps {
				back[j] = at + p
			}
			slices.Sort(back)
		}
		g.succs[at+i], g.preds[at+i] = out, back
	}
}

// copyLabels moves every input's edge labels into the union's table with
// both endpoints offset. The argument lists are already sorted and need
// only a new home.
func (b *UnionBuilder) copyLabels() {
	for i := range b.pieces[:len(b.pieces)-1] {
		u := &b.pieces[i]
		if u.lo != 0 {
			continue
		}
		at, dst := b.base+u.ev, b.labels[u.lab:b.pieces[i+1].lab]
		for key, args := range u.g.edgeArgs {
			if k := copy(dst, args); k > 0 {
				b.g.edgeArgs[edgeKey(int(key>>32)+at, int(uint32(key))+at)] = dst[:k:k]
				dst = dst[k:]
			}
		}
	}
}

// cutRuns cuts the pieces (ev still holds sizes) into contiguous runs of
// about equal event count, one per goroutine, as indexes into b.pieces: a
// single run below unionFanoutEvents or when there is one piece or one
// processor.
func (b *UnionBuilder) cutRuns() {
	n := len(b.pieces) - 1
	b.runs = append(b.runs[:0], 0)
	total := 0
	for i := range b.pieces[:n] {
		total += b.pieces[i].ev
	}
	if w := min(runtime.GOMAXPROCS(0), n); w >= 2 && total >= unionFanoutEvents {
		before := 0 // events of the pieces before i
		for i := 0; i < n && len(b.runs) < w; i++ {
			if i > b.runs[len(b.runs)-1] && before >= total*len(b.runs)/w {
				b.runs = append(b.runs, i)
			}
			before += b.pieces[i].ev
		}
	}
	b.runs = append(b.runs, n)
}

// forRuns calls f for every piece of every run, with the entry after it,
// and, when asked, copyLabels once. With one run everything happens on the
// caller's goroutine; otherwise every run gets a goroutine and the caller
// copies the labels beside them. What a piece writes is fixed by its
// offsets, never by scheduling.
func (b *UnionBuilder) forRuns(f func(b *UnionBuilder, u, next *unionPiece), labels bool) {
	if len(b.runs) == 2 {
		b.run(f, 0)
		if labels {
			b.copyLabels()
		}
		return
	}
	var wg sync.WaitGroup
	for k := 0; k+1 < len(b.runs); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.run(f, k)
		}()
	}
	if labels {
		b.copyLabels()
	}
	wg.Wait()
}

// run calls f for every piece of run k.
func (b *UnionBuilder) run(f func(b *UnionBuilder, u, next *unionPiece), k int) {
	for i := b.runs[k]; i < b.runs[k+1]; i++ {
		f(b, &b.pieces[i], &b.pieces[i+1])
	}
}
