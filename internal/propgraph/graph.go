// Package propgraph defines propagation graphs: the events of a program
// that may propagate tainted information and the information-flow edges
// between them (paper §3).
//
// Events are function calls, object reads (attribute loads, subscripts),
// and formal parameters. Each event carries an ordered list of
// representations, from most to least specific, used for backoff during
// learning (§3.2, §4.3). Representations are interned into the graph's
// symbol table (Interner) and carried as dense Sym indices; the strings
// themselves are materialized only on display paths. Two events with
// equal representations remain distinct vertices; Collapse applies
// vertex contraction to obtain the Merlin-style collapsed graph (§6.4).
package propgraph

import (
	"fmt"
	"sort"

	"seldon/internal/pytoken"
)

// EventKind classifies an event.
type EventKind int

// Event kinds.
const (
	KindCall  EventKind = iota // function or method invocation
	KindRead                   // attribute or subscript load
	KindParam                  // formal argument of a function definition
)

func (k EventKind) String() string {
	switch k {
	case KindCall:
		return "call"
	case KindRead:
		return "read"
	case KindParam:
		return "param"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Role is a taint role an event can play.
type Role int

// Taint roles.
const (
	Source Role = iota
	Sanitizer
	Sink
	NumRoles // number of roles; keep last
)

func (r Role) String() string {
	switch r {
	case Source:
		return "source"
	case Sanitizer:
		return "sanitizer"
	case Sink:
		return "sink"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Roles returns all roles in canonical order.
func Roles() []Role { return []Role{Source, Sanitizer, Sink} }

// ParseRole is String's inverse over Roles: the name a feedback verdict or
// a specification store spells a role by.
func ParseRole(s string) (Role, bool) {
	for _, r := range Roles() {
		if r.String() == s {
			return r, true
		}
	}
	return 0, false
}

// RoleSet is a small set of roles.
type RoleSet uint8

// Role set constructors.
const (
	SourceOnly RoleSet = 1 << Source
	SanOnly    RoleSet = 1 << Sanitizer
	SinkOnly   RoleSet = 1 << Sink
	AllRoles   RoleSet = SourceOnly | SanOnly | SinkOnly
)

// Has reports whether the set contains r.
func (s RoleSet) Has(r Role) bool { return s&(1<<r) != 0 }

// With returns the set extended with r.
func (s RoleSet) With(r Role) RoleSet { return s | 1<<r }

// CandidateRoles returns the roles an event of kind k may take (§5.1):
// calls may be anything; reads and parameters may only be sources.
func CandidateRoles(k EventKind) RoleSet {
	if k == KindCall {
		return AllRoles
	}
	return SourceOnly
}

// Event is a vertex of a propagation graph.
type Event struct {
	ID   int
	Kind EventKind
	File string
	Pos  pytoken.Pos
	// RepIDs lists possible representations as symbols in the owning
	// graph's table, ordered most → least specific. RepIDs[0] interns the
	// fully qualified name used when matching seed specs.
	RepIDs []Sym
	Roles  RoleSet // candidate roles, before blacklisting

	// syms is the owning graph's symbol table, used to materialize the
	// representation strings on demand.
	syms *Interner
}

// NumReps returns the number of representations of the event.
func (e *Event) NumReps() int { return len(e.RepIDs) }

// Rep materializes the i-th representation (0 = most specific).
func (e *Event) Rep(i int) string { return e.syms.Str(e.RepIDs[i]) }

// Reps materializes the representation strings, most → least specific.
// Strings are built lazily on call — hot paths should index RepIDs
// against the graph's symbol table instead.
func (e *Event) Reps() []string {
	if len(e.RepIDs) == 0 {
		return nil
	}
	strs := e.syms.Strings()
	out := make([]string, len(e.RepIDs))
	for i, s := range e.RepIDs {
		out[i] = strs[s]
	}
	return out
}

// dedupDegree is the out-degree above which AddEdge switches from a
// linear duplicate scan to a per-source hash set. Small lists stay on
// the scan (cache-friendly, no allocation); high-fanout events — hub
// calls in big corpora — stop being quadratic.
const dedupDegree = 16

// Graph is a propagation graph. Edges point in the direction of
// information flow. Graphs built by the dataflow analyzer are acyclic
// (loops are analyzed as a single iteration, §5.2).
type Graph struct {
	// Syms interns every representation string of the graph's events;
	// Event.RepIDs index into it.
	Syms   *Interner
	Events []*Event
	succs  [][]int
	preds  [][]int
	// succSet mirrors succs[src] as a set for sources whose out-degree
	// crossed dedupDegree; built lazily by AddEdge.
	succSet map[int]map[int]struct{}
	// Edge labels: the argument positions a flow enters through (see
	// args.go). A source with a labeled edge has a row, argRows[argRow[src]-1],
	// that runs parallel to succs[src]: one sorted list per successor, nil
	// for an unlabeled edge. argRow is 0 for a source without labels, and
	// both the table and a row are only as long as the labels need — an
	// event past the end of argRow, or a successor past the end of its row,
	// is unlabeled. A label is addressed by position, never by event ID,
	// so renumbering a graph's events does not touch it.
	argRow  []int32
	argRows [][][]int

	// A graph built event by event (AddEvent, AddEdge) carves its events,
	// their RepIDs and its adjacency and label lists from chunks instead
	// of allocating each one. These are the uncarved tails of the current
	// chunks; the chunks belong to the graph and live as long as it does.
	eventChunk []Event
	symChunk   []Sym
	intChunk   []int
	listChunk  [][]int
}

// typicalFile is the event count the tables of an incrementally built
// graph are first sized for, and roughly its symbol count: a corpus
// file's graph has 19 events and 20 symbols on average, 30 and 39 at
// most, so one allocation per table serves almost every file.
const typicalFile = 32

// New returns an empty propagation graph with a fresh symbol table.
func New() *Graph { return &Graph{Syms: newInterner(typicalFile * 3 / 4)} }

// chunkLen is the length of the next chunk of a graph that has n events
// and needs room for at least need elements: chunks grow with the graph.
func chunkLen(n, need int) int { return max(min(max(n, typicalFile/2), 512), need) }

// AddEvent appends an event, interning its representations, and assigns
// and returns its ID.
func (g *Graph) AddEvent(kind EventKind, file string, pos pytoken.Pos, reps []string) *Event {
	n := len(g.Events)
	var ids []Sym
	if len(reps) > 0 {
		if g.Syms == nil {
			g.Syms = NewInterner()
		}
		if len(g.symChunk) < len(reps) {
			g.symChunk = make([]Sym, chunkLen(2*n, len(reps)))
		}
		ids = g.symChunk[:len(reps):len(reps)]
		g.symChunk = g.symChunk[len(reps):]
		for i, r := range reps {
			ids[i] = g.Syms.Intern(r)
		}
	}
	if len(g.eventChunk) == 0 {
		g.eventChunk = make([]Event, chunkLen(n, 1))
	}
	e := &g.eventChunk[0]
	g.eventChunk = g.eventChunk[1:]
	*e = Event{
		ID: n, Kind: kind, File: file, Pos: pos,
		RepIDs: ids, Roles: CandidateRoles(kind), syms: g.Syms,
	}
	if g.Events == nil {
		g.Events = make([]*Event, 0, typicalFile)
		g.succs = make([][]int, 0, typicalFile)
		g.preds = make([][]int, 0, typicalFile)
	}
	g.Events = append(g.Events, e)
	g.succs = append(g.succs, nil)
	g.preds = append(g.preds, nil)
	return e
}

// push appends v to an adjacency or label list of the graph. A full list
// moves to a run of twice its length carved from the graph's chunk, the
// growth append would give it, without an allocation per list.
func (g *Graph) push(list []int, v int) []int {
	if len(list) == cap(list) {
		n := max(2*len(list), 1)
		if len(g.intChunk) < n {
			g.intChunk = make([]int, chunkLen(2*len(g.Events), n))
		}
		run := g.intChunk[:len(list):n]
		g.intChunk = g.intChunk[n:]
		copy(run, list)
		list = run
	}
	return append(list, v)
}

// AddEdge records information flow from src to dst. Self-loops and
// duplicate edges are dropped. Below dedupDegree successors the
// duplicate check is a linear scan; above it a per-source set takes
// over (built once from the current list), so high-fanout sources pay
// O(1) per insertion instead of O(out-degree). Edge order is append
// order either way.
func (g *Graph) AddEdge(src, dst int) {
	if src == dst || src < 0 || dst < 0 || src >= len(g.Events) || dst >= len(g.Events) {
		return
	}
	ss := g.succs[src]
	if len(ss) < dedupDegree {
		for _, s := range ss {
			if s == dst {
				return
			}
		}
	} else {
		set := g.succSet[src]
		if set == nil {
			set = make(map[int]struct{}, len(ss)+1)
			for _, s := range ss {
				set[s] = struct{}{}
			}
			if g.succSet == nil {
				g.succSet = make(map[int]map[int]struct{})
			}
			g.succSet[src] = set
		}
		if _, dup := set[dst]; dup {
			return
		}
		set[dst] = struct{}{}
	}
	g.succs[src] = g.push(ss, dst)
	g.preds[dst] = g.push(g.preds[dst], src)
}

// Succs returns the IDs of events receiving flow from id.
func (g *Graph) Succs(id int) []int { return g.succs[id] }

// Preds returns the IDs of events flowing into id.
func (g *Graph) Preds(id int) []int { return g.preds[id] }

// NumEdges returns the total edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, s := range g.succs {
		n += len(s)
	}
	return n
}

// Collapse applies vertex contraction, merging all events that share the
// same most-specific representation into a single vertex (Fig. 7). The
// result is Merlin's collapsed propagation graph (§6.4); it is generally
// unsuitable for taint analysis but usable for specification learning.
// Events without representations are kept as-is. The collapsed graph
// shares the input's symbol table.
//
// Only tests call it now (this package's and internal/experiments', for
// the Merlin baseline); it stays here, exported, because a _test.go file
// cannot export to another package's tests.
func (g *Graph) Collapse() *Graph {
	out := &Graph{Syms: g.Syms}
	classOf := make([]int, len(g.Events))
	// Contract on the most specific representation, qualified by kind so
	// a read and a call never merge; events without representations are
	// never merged.
	byRep := make(map[uint64]int)
	for _, e := range g.Events {
		id := -1
		if len(e.RepIDs) > 0 {
			key := uint64(e.Kind)<<32 | uint64(e.RepIDs[0])
			if prev, ok := byRep[key]; ok {
				// Candidate roles of merged events accumulate.
				out.Events[prev].Roles |= e.Roles
				classOf[e.ID] = prev
				continue
			}
			ne := *e
			ne.ID = len(out.Events)
			out.Events = append(out.Events, &ne)
			out.succs = append(out.succs, nil)
			out.preds = append(out.preds, nil)
			id = ne.ID
			byRep[key] = id
		} else {
			ne := *e
			ne.ID = len(out.Events)
			out.Events = append(out.Events, &ne)
			out.succs = append(out.succs, nil)
			out.preds = append(out.preds, nil)
			id = ne.ID
		}
		classOf[e.ID] = id
	}
	for src, ss := range g.succs {
		for _, dst := range ss {
			out.AddEdge(classOf[src], classOf[dst])
		}
	}
	out.copyEdgeArgsMapped(g, classOf)
	return out
}

// ForwardReachable returns the set of event IDs reachable from start by
// following edges forward, excluding start itself unless it lies on a cycle.
func (g *Graph) ForwardReachable(start int) []int {
	return g.reachable(start, g.succs)
}

// BackwardReachable returns the set of event IDs that can reach start.
func (g *Graph) BackwardReachable(start int) []int {
	return g.reachable(start, g.preds)
}

func (g *Graph) reachable(start int, adj [][]int) []int {
	seen := make(map[int]bool)
	queue := append([]int(nil), adj[start]...)
	var out []int
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
		queue = append(queue, adj[id]...)
	}
	sort.Ints(out)
	return out
}

// Stats summarizes a propagation graph for reporting (Table 1).
type Stats struct {
	Events      int
	Edges       int
	Candidates  int     // events with at least one representation
	AvgBackoff  float64 // average number of representations per candidate
	CallEvents  int
	ReadEvents  int
	ParamEvents int

	// Symbols counts the distinct representation strings in the graph's
	// table; RepOccurrences counts representation slots across events.
	// Their byte totals quantify what interning saves: SymbolBytes is the
	// footprint of each distinct string stored once, OccurrenceBytes what
	// carrying every slot by value would cost.
	Symbols         int
	RepOccurrences  int
	SymbolBytes     int64
	OccurrenceBytes int64
}

// ComputeStats gathers summary statistics.
func (g *Graph) ComputeStats() Stats {
	st := Stats{Events: len(g.Events), Edges: g.NumEdges()}
	strs := g.Syms.Strings()
	totalReps := 0
	for _, e := range g.Events {
		switch e.Kind {
		case KindCall:
			st.CallEvents++
		case KindRead:
			st.ReadEvents++
		case KindParam:
			st.ParamEvents++
		}
		if len(e.RepIDs) > 0 {
			st.Candidates++
			totalReps += len(e.RepIDs)
			for _, s := range e.RepIDs {
				st.OccurrenceBytes += int64(len(strs[s]))
			}
		}
	}
	st.RepOccurrences = totalReps
	st.Symbols = g.Syms.Len()
	st.SymbolBytes = g.Syms.Bytes()
	if st.Candidates > 0 {
		st.AvgBackoff = float64(totalReps) / float64(st.Candidates)
	}
	return st
}
