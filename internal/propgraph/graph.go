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
// equal representations remain distinct vertices.
//
// A graph is a handful of flat arrays: its events by value, and its
// representations, successors, predecessors and edge labels each in one
// array that events and edges hold ranges of. None of them holds a
// pointer, so the collector marks a graph's arrays without scanning
// them. A Builder assembles a graph; a built graph is not modified.
package propgraph

import (
	"fmt"
	"slices"

	"seldon/internal/pytoken"
)

// EventKind classifies an event.
type EventKind uint8

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

// span is the range [lo, hi) of one of a graph's flat arrays.
type span struct{ lo, hi uint32 }

func (s span) len() int { return int(s.hi - s.lo) }

// shift returns the span moved d elements along its array.
func (s span) shift(d uint32) span { return span{s.lo + d, s.hi + d} }

// Event is a vertex of a propagation graph. Its ID is its index in
// Graph.Events; what it names — representations, file, adjacency — is
// read through the graph (RepIDs, File, Succs, Preds).
type Event struct {
	Pos pytoken.Pos
	// reps is the event's range of Graph.reps: its representations as
	// symbols of the graph's table, most → least specific. The first
	// interns the fully qualified name used when matching seed specs.
	reps span
	// succ and pred are its ranges of Graph.succ and Graph.pred.
	succ, pred span
	file       int32 // index into Graph.files
	Kind       EventKind
	Roles      RoleSet // candidate roles, before blacklisting
}

// Graph is a propagation graph. Edges point in the direction of
// information flow. Graphs built by the dataflow analyzer are acyclic
// (loops are analyzed as a single iteration, §5.2).
type Graph struct {
	// Syms interns every representation string of the graph's events;
	// RepIDs index into it.
	Syms   *Interner
	Events []Event
	// files is the table Event.file indexes. A built or decoded graph's
	// names each file once; a union's is its inputs' tables back to back.
	files []string
	reps  []Sym
	// succ holds every event's successors in insertion order, pred its
	// predecessors in ascending order. lab runs parallel to succ: the edge
	// to succ[k] enters through the argument positions args[lab[k]], in
	// ascending order, and is unlabeled when the range is empty. A label is
	// addressed by successor position, never by event ID, so renumbering a
	// graph's events does not touch it.
	succ, pred []int
	lab        []span
	args       []int
}

// typicalFile is the event count a Builder is first sized for, and
// roughly its symbol count: a corpus file's graph has 19 events and 20
// symbols on average, 30 and 39 at most, so one allocation per table
// serves almost every file.
const typicalFile = 32

// RepIDs returns the representations of event id as symbols of the
// graph's table, most → least specific.
func (g *Graph) RepIDs(id int) []Sym {
	r := g.Events[id].reps
	return g.reps[r.lo:r.hi:r.hi]
}

// NumReps returns the number of representations of event id.
func (g *Graph) NumReps(id int) int { return g.Events[id].reps.len() }

// Rep materializes the i-th representation of event id (0 = most
// specific).
func (g *Graph) Rep(id, i int) string { return g.Syms.Str(g.RepIDs(id)[i]) }

// Reps materializes the representation strings of event id, most → least
// specific. Strings are built on call — hot paths should index RepIDs
// against the graph's symbol table instead.
func (g *Graph) Reps(id int) []string {
	ids := g.RepIDs(id)
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, len(ids))
	for i, s := range ids {
		out[i] = g.Syms.Str(s)
	}
	return out
}

// File returns the name of the file event id occurs in.
func (g *Graph) File(id int) string { return g.files[g.Events[id].file] }

// Succs returns the IDs of events receiving flow from id.
func (g *Graph) Succs(id int) []int {
	s := g.Events[id].succ
	return g.succ[s.lo:s.hi:s.hi]
}

// Preds returns the IDs of events flowing into id, ascending.
func (g *Graph) Preds(id int) []int {
	s := g.Events[id].pred
	return g.pred[s.lo:s.hi:s.hi]
}

// NumEdges returns the total edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for i := range g.Events {
		n += g.Events[i].succ.len()
	}
	return n
}

// ForwardReachable returns the set of event IDs reachable from start by
// following edges forward, excluding start itself unless it lies on a cycle.
func (g *Graph) ForwardReachable(start int) []int { return g.reachable(start, g.Succs) }

// BackwardReachable returns the set of event IDs that can reach start.
func (g *Graph) BackwardReachable(start int) []int { return g.reachable(start, g.Preds) }

func (g *Graph) reachable(start int, adj func(int) []int) []int {
	seen := make([]bool, len(g.Events))
	queue := slices.Clone(adj(start))
	var out []int
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
		queue = append(queue, adj(id)...)
	}
	slices.Sort(out)
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
	// table. The byte totals quantify what interning saves: SymbolBytes is
	// the footprint of each distinct string stored once, OccurrenceBytes
	// what carrying every representation slot by value would cost.
	Symbols         int
	SymbolBytes     int64
	OccurrenceBytes int64
}

// ComputeStats gathers summary statistics.
func (g *Graph) ComputeStats() Stats {
	st := Stats{Events: len(g.Events), Edges: g.NumEdges()}
	syms := g.Syms.view()
	totalReps := 0
	for id, e := range g.Events {
		switch e.Kind {
		case KindCall:
			st.CallEvents++
		case KindRead:
			st.ReadEvents++
		case KindParam:
			st.ParamEvents++
		}
		if ids := g.RepIDs(id); len(ids) > 0 {
			st.Candidates++
			totalReps += len(ids)
			for _, s := range ids {
				st.OccurrenceBytes += int64(len(syms.at(int(s))))
			}
		}
	}
	st.Symbols = g.Syms.Len()
	st.SymbolBytes = g.Syms.Bytes()
	if st.Candidates > 0 {
		st.AvgBackoff = float64(totalReps) / float64(st.Candidates)
	}
	return st
}
