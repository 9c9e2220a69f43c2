package propgraph

import (
	"unsafe"

	"seldon/internal/arena"
	"seldon/internal/pytoken"
)

// dedupDegree is the out-degree above which AddEdge switches from a
// linear duplicate scan to the builder's edge set. Small lists stay on
// the scan (cache-friendly, no hashing); high-fanout events — hub calls
// in big corpora — stop being quadratic.
const dedupDegree = 16

// Builder assembles a propagation graph event by event and edge by edge,
// and Build copies it out at its exact size. The builder is the graph's
// mutable half: its tables grow by append, adjacency and labels are lists
// threaded through two arrays, and it is reused from one graph to the
// next, so building a graph allocates the graph and nothing else once the
// builder has grown. A built graph never points into its builder.
//
// The zero value is ready to use. Not safe for concurrent use.
type Builder struct {
	syms   symBuilder
	files  []string
	events []Event // reps set as added; succ and pred are Build's
	reps   []Sym
	out    []outList
	edges  []builderEdge // in insertion order
	labs   []builderLab
	// set holds the edges of every source whose out-degree reached
	// dedupDegree, by edgeKey, as indices into edges.
	set map[int64]int32
	// held is the most entries the two maps held since the last Reset.
	held int
}

// outList is an event's successor list in Builder.edges: its first and
// last edge (-1 when empty) and its length.
type outList struct{ head, tail, n int32 }

// builderEdge is an edge src→dst, the next edge of its source (-1 at the
// end) and the first of its labels (-1 when unlabeled).
type builderEdge struct{ src, dst, next, lab int32 }

// builderLab is one label of an edge and the next, which is larger.
type builderLab struct {
	arg  int
	next int32
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return new(Builder) }

// Len returns the number of events added so far.
func (b *Builder) Len() int { return len(b.events) }

// AddEvent appends an event, interning its representations, and returns
// its ID.
func (b *Builder) AddEvent(kind EventKind, file string, pos pytoken.Pos, reps []string) int {
	if cap(b.events) == 0 {
		b.presize()
	}
	fi := len(b.files) - 1
	for fi >= 0 && b.files[fi] != file {
		fi--
	}
	if fi < 0 {
		fi = len(b.files)
		b.files = append(b.files, file)
	}
	lo := len(b.reps)
	for _, r := range reps {
		b.reps = append(b.reps, b.syms.intern(r))
	}
	b.events = append(b.events, Event{
		Pos: pos, reps: span{uint32(lo), uint32(len(b.reps))},
		file: int32(fi), Kind: kind, Roles: CandidateRoles(kind),
	})
	b.out = append(b.out, outList{head: -1, tail: -1})
	return len(b.events) - 1
}

// presize gives a builder that has none its first tables, sized for a
// typical file.
func (b *Builder) presize() {
	b.syms.index = make(map[string]Sym, typicalFile)
	b.syms.blob = make([]byte, 0, 32*typicalFile)
	b.syms.ends = make([]uint32, 0, typicalFile)
	b.files = make([]string, 0, 1)
	b.events = make([]Event, 0, typicalFile)
	b.reps = make([]Sym, 0, 2*typicalFile)
	b.out = make([]outList, 0, typicalFile)
	b.edges = make([]builderEdge, 0, typicalFile)
	b.labs = make([]builderLab, 0, typicalFile)
}

// AddEdge records information flow from src to dst. Self-loops, edges
// to or from an event not added yet and duplicate edges are dropped.
// Below dedupDegree successors the duplicate check is a linear scan of
// the source's list; from there on the builder's edge set answers it.
// Edge order is insertion order either way.
func (b *Builder) AddEdge(src, dst int) { b.edge(src, dst) }

// AddEdgeArg records information flow from src to dst entering through
// argument position arg (0-based; ArgReceiver/ArgKeyword for non-positional
// flow). The edge itself is created as by AddEdge.
func (b *Builder) AddEdgeArg(src, dst, arg int) {
	e := b.edge(src, dst)
	if e < 0 {
		return
	}
	prev, cur := int32(-1), b.edges[e].lab
	for cur >= 0 && b.labs[cur].arg < arg {
		prev, cur = cur, b.labs[cur].next
	}
	if cur >= 0 && b.labs[cur].arg == arg {
		return
	}
	l := int32(len(b.labs))
	b.labs = append(b.labs, builderLab{arg: arg, next: cur})
	if prev < 0 {
		b.edges[e].lab = l
	} else {
		b.labs[prev].next = l
	}
}

// edge returns the index of the edge src→dst, adding it when it is new,
// or -1 when it is not an edge AddEdge keeps.
func (b *Builder) edge(src, dst int) int32 {
	if src == dst || src < 0 || dst < 0 || src >= len(b.events) || dst >= len(b.events) {
		return -1
	}
	o := &b.out[src]
	if o.n < dedupDegree {
		for e := o.head; e >= 0; e = b.edges[e].next {
			if int(b.edges[e].dst) == dst {
				return e
			}
		}
	} else if e, ok := b.set[edgeKey(src, dst)]; ok {
		return e
	}
	e := int32(len(b.edges))
	b.edges = append(b.edges, builderEdge{src: int32(src), dst: int32(dst), next: -1, lab: -1})
	if o.head < 0 {
		o.head = e
	} else {
		b.edges[o.tail].next = e
	}
	o.tail = e
	o.n++
	switch {
	case o.n == dedupDegree:
		// The list is long enough for the set to take over: enter all of it.
		if b.set == nil {
			b.set = make(map[int64]int32)
		}
		for f := o.head; f >= 0; f = b.edges[f].next {
			b.set[edgeKey(src, int(b.edges[f].dst))] = f
		}
	case o.n > dedupDegree:
		b.set[edgeKey(src, dst)] = e
	}
	return e
}

// Build returns the graph built so far, every table copied out at its
// exact size, and empties the builder for the next graph. Successors keep
// insertion order; predecessors are in ascending order, the normal form
// DecodeBinary and Union produce too.
func (b *Builder) Build() *Graph {
	g := newSealedGraph(string(b.syms.blob), exactly(b.syms.ends))
	g.Events, g.files, g.reps = exactly(b.events), exactly(b.files), exactly(b.reps)
	m := len(b.edges)
	adj := make([]int, 2*m) // successors, then predecessors
	g.succ, g.pred = adj[:m:m], adj[m:]
	g.lab, g.args = make([]span, m), make([]int, len(b.labs))
	k, a := 0, 0
	for src := range g.Events {
		lo := k
		for e := b.out[src].head; e >= 0; e = b.edges[e].next {
			be := &b.edges[e]
			g.succ[k] = int(be.dst)
			from := a
			for l := be.lab; l >= 0; l = b.labs[l].next {
				g.args[a] = b.labs[l].arg
				a++
			}
			g.lab[k] = span{uint32(from), uint32(a)}
			g.Events[be.dst].pred.hi++ // counts in-degrees for now
			k++
		}
		g.Events[src].succ = span{uint32(lo), uint32(k)}
	}
	g.fillPreds()
	b.clear()
	return g
}

// fillPreds lays out the predecessor lists from the in-degrees counted in
// each event's pred.hi and fills them from the successor lists, sources
// ascending.
func (g *Graph) fillPreds() {
	at := uint32(0)
	for i := range g.Events {
		p := &g.Events[i].pred
		n := p.hi
		*p = span{at, at}
		at += n
	}
	for src := range g.Events {
		for _, dst := range g.Succs(src) {
			p := &g.Events[dst].pred
			g.pred[p.hi] = src
			p.hi++
		}
	}
}

// exactly returns a copy of s of exactly its length, nil when empty.
func exactly[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// clear empties the builder, keeping its capacity.
func (b *Builder) clear() {
	b.held = max(b.held, len(b.syms.index)+len(b.set))
	b.syms.reset()
	clear(b.files)
	b.files = b.files[:0]
	b.events, b.reps, b.out = b.events[:0], b.reps[:0], b.out[:0]
	b.edges, b.labs = b.edges[:0], b.labs[:0]
	clear(b.set)
}

// Reset empties the builder and, when its tables hold more than maxBytes
// or its maps held more entries than that many bytes would, lets them go,
// as arena.Buffer asks of what a scratch keeps.
func (b *Builder) Reset(maxBytes int) (dropped bool) {
	b.clear()
	if b.Bytes() > maxBytes || 64*b.held > maxBytes {
		*b = Builder{}
		return true
	}
	b.held = 0
	return false
}

// Bytes returns the capacity of the builder's tables in bytes, maps not
// counted.
func (b *Builder) Bytes() int {
	return cap(b.syms.blob) + 4*cap(b.syms.ends) + 16*cap(b.files) +
		int(unsafe.Sizeof(Event{}))*cap(b.events) + 4*cap(b.reps) + 12*cap(b.out) +
		16*cap(b.edges) + 16*cap(b.labs)
}

// Poison overwrites the builder's tables with garbage and puts a garbage
// entry in each map (see arena.Arena.Poison). It must be Reset before its
// next use.
func (b *Builder) Poison() {
	arena.PoisonSlice(b.syms.blob)
	arena.PoisonSlice(b.syms.ends)
	arena.PoisonSlice(b.files)
	arena.PoisonSlice(b.events)
	arena.PoisonSlice(b.reps)
	arena.PoisonSlice(b.out)
	arena.PoisonSlice(b.edges)
	arena.PoisonSlice(b.labs)
	if b.syms.index != nil {
		b.syms.index["\xffPOISON\xff"] = 0x5a5a5a5a
	}
	if b.set != nil {
		b.set[-1] = 0x5a5a5a5a
	}
}
