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
// copied, so contiguous runs of inputs can be copied by several
// goroutines and land exactly where one goroutine would have put them.
// The inputs are well-formed graphs (edges deduplicated, no self-loops,
// sorted labels only on edges — DecodeBinary rejects anything else) and
// the union is disjoint, so adjacency and labels are copied in bulk with
// both endpoints offset, without AddEdge's duplicate scan.
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
	inputs []unionInput // one entry more than there are inputs
	runs   []int        // contiguous runs of inputs, one per goroutine
	// Blocks carved for this copy; inputs index them by their offsets.
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

// unionFanoutEvents is the size of a copy, in events, from which its
// inputs are dealt to GOMAXPROCS goroutines; below it a goroutine costs
// more than the events it would copy. The unit dealt is an input, so the
// one-file Union of a /v1/check, and any Add, is a single run however
// many processors there are, and never starts a goroutine.
const unionFanoutEvents = 4096

// unionInput is one graph of a copy. Before the prefix sums ev, rep, edge,
// pred and lab hold its own sizes, after them the offset of its first
// event, representation slot, successor, predecessor and label int within
// the copy's blocks; one entry past the last input holds the totals.
type unionInput struct {
	g                        *Graph
	xlat                     []Sym
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
	// Sizes are counted on the way, then turned into offsets.
	b.inputs = slices.Grow(b.inputs[:0], len(graphs)+1)
	labelled := 0
	for _, src := range graphs {
		u := unionInput{g: src, xlat: g.Syms.TranslateFrom(src.Syms), ev: len(src.Events)}
		for i, e := range src.Events {
			u.rep += len(e.RepIDs)
			u.edge += len(src.succs[i])
			u.pred += len(src.preds[i])
		}
		for _, args := range src.edgeArgs {
			u.lab += len(args)
		}
		labelled += len(src.edgeArgs)
		b.inputs = append(b.inputs, u)
	}
	b.inputs = append(b.inputs, unionInput{})
	b.cutRuns()
	var sum unionInput
	for i := range b.inputs {
		u := &b.inputs[i]
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
	if labelled > 0 && g.edgeArgs == nil {
		g.edgeArgs = make(map[int64][]int, labelled)
	}

	// Every slot of the grown tables and every element of the blocks is
	// written by exactly one input, so what a run writes is fixed by its
	// offsets, never by scheduling. With one run everything happens on
	// this goroutine; otherwise every run gets its own. Labels go into
	// one table, so one goroutine fills it: this one, beside the runs.
	var wg sync.WaitGroup
	if len(b.runs) == 2 {
		b.copyRun(0)
	} else {
		for k := 0; k+1 < len(b.runs); k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.copyRun(k)
			}()
		}
	}
	b.copyLabels()
	wg.Wait()

	// Let go of the inputs.
	clear(b.inputs)
}

// cutRuns cuts the inputs (ev still holds sizes) into contiguous runs of
// about equal event count, one per goroutine, as indexes into b.inputs: a
// single run below unionFanoutEvents or when there is one input or one
// processor.
func (b *UnionBuilder) cutRuns() {
	n := len(b.inputs) - 1
	b.runs = append(b.runs[:0], 0)
	total := 0
	for i := range b.inputs[:n] {
		total += b.inputs[i].ev
	}
	if w := min(runtime.GOMAXPROCS(0), n); w >= 2 && total >= unionFanoutEvents {
		before := 0 // events of the inputs before i
		for i := 0; i < n && len(b.runs) < w; i++ {
			if i > b.runs[len(b.runs)-1] && before >= total*len(b.runs)/w {
				b.runs = append(b.runs, i)
			}
			before += b.inputs[i].ev
		}
	}
	b.runs = append(b.runs, n)
}

// copyRun copies the events of the inputs of run k and their adjacency.
// An input's part of each block ends where the next entry's begins.
func (b *UnionBuilder) copyRun(k int) {
	g := b.g
	for n := b.runs[k]; n < b.runs[k+1]; n++ {
		u, next := &b.inputs[n], &b.inputs[n+1]
		src, at := u.g, b.base+u.ev // at: the union's ID of the input's event 0
		events, reps := b.events[u.ev:next.ev], b.reps[u.rep:next.rep]
		succs, preds := b.succs[u.edge:next.edge], b.preds[u.pred:next.pred]
		for i, e := range src.Events {
			ne := &events[i]
			*ne = *e
			ne.ID = at + i
			ne.syms = g.Syms
			if nr := len(e.RepIDs); nr > 0 {
				ne.RepIDs, reps = reps[:nr:nr], reps[nr:]
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
			// Ascending-source order, the order AddEdge into the union
			// would have produced: the input's own list, sorted.
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
}

// copyLabels moves every input's edge labels into the union's table with
// both endpoints offset. The argument lists are already sorted and need
// only a new home.
func (b *UnionBuilder) copyLabels() {
	for i := range b.inputs[:len(b.inputs)-1] {
		u := &b.inputs[i]
		at, dst := b.base+u.ev, b.labels[u.lab:b.inputs[i+1].lab]
		for key, args := range u.g.edgeArgs {
			k := copy(dst, args)
			b.g.edgeArgs[edgeKey(int(key>>32)+at, int(uint32(key))+at)] = dst[:k:k]
			dst = dst[k:]
		}
	}
}
