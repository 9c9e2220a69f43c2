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
// Union is a UnionBuilder with no inputs yet that is handed all of them in
// one edit, so every block is allocated at its exact size; the copy itself
// is the builder's (see UnionBuilder). The result is byte-identical to
// re-adding every event and edge through AddEvent, AddEdge and AddEdgeArg.
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
// beforehand: the events, representation lists, successor and predecessor
// lists and edge labels of the new inputs are carved from blocks sized
// before anything is copied, so contiguous runs of inputs can be copied
// by several goroutines and land exactly where one goroutine would have
// put them. The inputs are well-formed graphs (edges deduplicated, no
// self-loops, sorted labels only on edges — DecodeBinary rejects anything
// else) and the union is disjoint, so adjacency is copied in bulk with
// both endpoints offset, without AddEdge's duplicate scan, and labels,
// which are addressed by successor position, are copied as they are.
//
// The inputs that an edit keeps are not copied again. Those behind the
// first edited position move: their slots in the graph's per-event tables
// shift by the difference in events before them, and the event IDs they
// hold — Event.ID and both endpoints' lists — move by the same constant.
// What a replaced input occupied in the blocks stays behind as dead space
// until it amounts to a share of the union (unionDeadShare), from where
// Splice asks for a rebuild instead.
type UnionBuilder struct {
	g *Graph
	// inputs lists the union's inputs in order; spare is scratch for the
	// inputs behind an edit while the list is rewritten. nsyms is the size
	// of the symbol table as of the last edit.
	inputs, spare []unionInput
	nsyms         int
	// live counts the events of the current inputs, dead those of inputs
	// since removed, whose blocks are still held.
	live, dead int
	// carved counts what has been carved from each kind of chunk so far,
	// the growth floor of the next one.
	carved struct{ events, reps, ints, lists int }

	// The edit under way, shared by its goroutines; the slices are reused
	// from one edit to the next, so that the Add of one small graph
	// allocates only its translation array.
	fresh []unionFresh // the inputs to copy in, and one entry of totals
	runs  []int        // contiguous runs of fresh inputs, one per goroutine
	segs  []unionSeg
	// Blocks carved for this copy; fresh inputs index them by their offsets.
	events  []Event
	reps    []Sym
	ints    []int
	lists   [][]int
	rowBase int // where this copy's label rows begin in the graph's argRows
}

// UnionEdit replaces the Del inputs of a union from input At on by the
// graphs Ins, in order: an insertion when Del is 0, a removal when Ins is
// empty. The graphs are not modified and must not change afterwards
// (their adjacency is copied, their symbol tables only read).
type UnionEdit struct {
	At, Del int
	Ins     []*Graph
}

// unionInput is one input of the union: the ID of its first event, the
// size of the symbol table before it was translated (so it introduced the
// symbols from symLo up to the next input's symLo), its events, and the
// event IDs its adjacency holds, successors then predecessors.
type unionInput struct {
	at, symLo int
	events    []Event
	ends      []int
}

// unionFresh is an input being copied in: its place in the input list,
// its sizes, and where its share of each block begins.
type unionFresh struct {
	g     *Graph
	xlat  []Sym
	in    int
	symLo int
	// Events, representation slots, successors, predecessors, label ints,
	// label lists (one per successor of a labeled source) and label rows
	// (one per labeled source).
	ev, rep, edge, pred, lab, list, row int
	// Offsets into the copy's blocks; ints hold successors, predecessors
	// and labels of one input side by side.
	evOff, repOff, intOff, listOff, rowOff int
}

// unionSeg is a run of kept inputs whose table slots move together: the
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
// one-file Union of a /v1/check, and the Add of one graph, is a single run
// however many processors there are, and never starts a goroutine.
const unionFanoutEvents = 4096

// unionDeadShare is the share of dead events, as 1/unionDeadShare of the
// live ones, past which Splice refuses and the caller builds the union
// anew in exact blocks. Dead space costs memory, not time — nothing walks
// it — so the bound is a memory bound: with chunks of a sixteenth (carve)
// a standing union holds at most 1/8 + 1/16 more than a fresh one, ≈ 4 MB
// on the 20 MB of a 6000-file corpus. A six-file edit kills 0.1 % of the
// events, so the share is reached after ≈ 125 edits none of which
// renumbered a symbol; on the benchmark's edit stream, where one edit in
// seven does and rebuilds the union anyway, it never is — 200 re-learns
// patched 169 times and rebuilt 31 times at 1/4, 1/8 and 1/32 alike, in
// the same time. A session whose vocabulary is settled is where it acts
// (TestRandomEditsOracle: every ≈ 20th edit at 300 files), and there a
// rebuild every 125 re-learns costs a quarter of a millisecond each.
const unionDeadShare = 8

// unionDeadFloor is the number of dead events below which their share
// does not matter: they hold some 200 KB, and a union small enough for
// that to be an eighth of it is rebuilt in well under a millisecond
// anyway, which is no reason to rebuild it at every other edit.
const unionDeadFloor = 1024

// carve cuts n elements off the front of *chunk. A chunk that is too
// short is first replaced by one of max(n, carved/16) elements: exactly n
// when nothing was carved before (Union, which knows its totals), a
// sixteenth of everything carved before otherwise, so that a stream of
// edits allocates a logarithmic number of chunks and a standing union
// never holds more than that share unused.
func carve[T any](chunk *[]T, n int, carved *int) []T {
	if len(*chunk) < n {
		*chunk = make([]T, max(n, *carved/16))
	}
	out := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	*carved += n
	return out
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
			f := unionFresh{g: src, xlat: b.g.Syms.TranslateFrom(src.Syms), symLo: next, ev: len(src.Events)}
			for _, sym := range f.xlat {
				switch {
				case int(sym) < next:
				case int(sym) == next && (next < limit || open):
					next++
				default:
					return false
				}
			}
			for i, ev := range src.Events {
				f.rep += len(ev.RepIDs)
				f.edge += len(src.succs[i])
				f.pred += len(src.preds[i])
			}
			for i := range src.argRow {
				row := src.labels(i)
				if len(row) == 0 {
					continue
				}
				f.row++
				f.list += len(row)
				for _, args := range row {
					f.lab += len(args)
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
// inputs behind the first edit have in the graph: their slots in the
// per-event tables and the event IDs they hold. The slots of the new
// inputs are left for copyFresh to fill.
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
		b.segs = append(b.segs, unionSeg{old[lo].at, old[hi-1].at + len(old[hi-1].events), d})
		for _, in := range old[lo:hi] {
			if d != 0 {
				for i := range in.events {
					in.events[i].ID += d
				}
				for i := range in.ends {
					in.ends[i] += d
				}
			}
			in.at += d
			b.inputs = append(b.inputs, in)
			at += len(in.events)
		}
	}
	k, fi := 0, 0 // the next old input (from first on), the next fresh one
	for _, e := range edits {
		keep(k, e.At-first)
		for range e.Ins {
			f := &b.fresh[fi]
			f.in = len(b.inputs)
			b.inputs = append(b.inputs, unionInput{at: at, symLo: f.symLo})
			at += f.ev
			b.live += f.ev
			fi++
		}
		k = e.At - first + e.Del
		for _, in := range old[e.At-first : k] {
			b.live -= len(in.events)
			b.dead += len(in.events)
		}
	}
	keep(k, len(old))
	b.spare = old

	g.Events = moveSegs(g.Events, b.segs, at)
	g.succs = moveSegs(g.succs, b.segs, at)
	g.preds = moveSegs(g.preds, b.segs, at)
	if g.argRow != nil {
		g.argRow = moveSegs(g.argRow, b.segs, at)
	}
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

// copyFresh carves the blocks of the new inputs and copies them in.
func (b *UnionBuilder) copyFresh() {
	g := b.g
	b.fresh = append(b.fresh, unionFresh{})
	b.runs = cutRuns(b.runs[:0], len(b.fresh)-1, func(i int) int { return b.fresh[i].ev }, unionFanoutEvents)
	var sum unionFresh
	for i := range b.fresh {
		f := &b.fresh[i]
		f.evOff, f.repOff, f.intOff, f.listOff, f.rowOff = sum.ev, sum.rep, sum.edge, sum.list, sum.row
		sum.ev += f.ev
		sum.rep += f.rep
		sum.edge += f.edge + f.pred + f.lab // all three kinds of ints
		sum.list += f.list
		sum.row += f.row
	}
	b.events = carve(&g.eventChunk, sum.ev, &b.carved.events)
	b.reps = carve(&g.symChunk, sum.rep, &b.carved.reps)
	b.ints = carve(&g.intChunk, sum.edge, &b.carved.ints)
	b.lists = carve(&g.listChunk, sum.list, &b.carved.lists)
	if sum.row > 0 && g.argRow == nil {
		g.argRow = make([]int32, len(g.Events), cap(g.Events))
	}
	// Label rows are appended to the graph's; those of removed inputs stay
	// behind with the rest of the dead space.
	b.rowBase = len(g.argRows)
	g.argRows = slices.Grow(g.argRows, sum.row)[:b.rowBase+sum.row]

	// Every slot of the tables and every element of the blocks is written
	// by exactly one input, so what a run writes is fixed by its offsets,
	// never by scheduling. The one run of a one-file union is copied
	// without the allocations of a fan-out.
	if len(b.runs) == 2 {
		b.copyRun(0)
	} else {
		eachRun(b.runs, b.copyRun)
	}

	// Let go of the inputs.
	clear(b.fresh)
}

// cutRuns appends to runs the bounds of contiguous runs of n items of about
// equal weight, one per goroutine: one below floor or with one processor or item.
func cutRuns(runs []int, n int, weight func(i int) int, floor int) []int {
	runs = append(runs, 0)
	total := 0
	for i := 0; i < n; i++ {
		total += weight(i)
	}
	if w := min(runtime.GOMAXPROCS(0), n); w >= 2 && total >= floor {
		before := 0 // weight of the items before i
		for i := 0; i < n && len(runs) < w; i++ {
			if i > runs[len(runs)-1] && before >= total*len(runs)/w {
				runs = append(runs, i)
			}
			before += weight(i)
		}
	}
	return append(runs, n)
}

// eachRun calls do(k) for every run k of cutRuns and returns when all have:
// the first on this goroutine, every other one on its own.
func eachRun(runs []int, do func(k int)) {
	var wg sync.WaitGroup
	for k := 1; k+1 < len(runs); k++ {
		wg.Add(1)
		go func() { defer wg.Done(); do(k) }()
	}
	do(0)
	wg.Wait()
}

// copyRun copies the events of the fresh inputs of run k, their adjacency
// and their labels. An input's part of each block ends where the next
// entry's begins.
func (b *UnionBuilder) copyRun(k int) {
	g := b.g
	for n := b.runs[k]; n < b.runs[k+1]; n++ {
		f, next := &b.fresh[n], &b.fresh[n+1]
		in := &b.inputs[f.in]
		src, at := f.g, in.at // at: the union's ID of the input's event 0
		events, reps := b.events[f.evOff:next.evOff], b.reps[f.repOff:next.repOff]
		ints, lists := b.ints[f.intOff:next.intOff], b.lists[f.listOff:next.listOff]
		in.events, in.ends = events, ints[:f.edge+f.pred]
		succs, preds, labels := ints[:f.edge], ints[f.edge:f.edge+f.pred], ints[f.edge+f.pred:]
		rowAt := b.rowBase + f.rowOff
		for i, e := range src.Events {
			ne := &events[i]
			*ne = *e
			ne.ID = at + i
			ne.syms = g.Syms
			if nr := len(e.RepIDs); nr > 0 {
				ne.RepIDs, reps = reps[:nr:nr], reps[nr:]
				for j, s := range e.RepIDs {
					ne.RepIDs[j] = f.xlat[s]
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

			// Labels go by successor position: a row of lists as it stands.
			if g.argRow == nil {
				continue
			}
			g.argRow[at+i] = 0
			if from := src.labels(i); len(from) > 0 {
				row := lists[:len(from):len(from)]
				lists = lists[len(from):]
				for j, args := range from {
					if len(args) > 0 {
						row[j], labels = labels[:len(args):len(args)], labels[len(args):]
						copy(row[j], args)
					}
				}
				g.argRows[rowAt] = row
				rowAt++
				g.argRow[at+i] = int32(rowAt)
			}
		}
	}
}
