// Package taint implements the static taint analyzer that consumes taint
// specifications (seed or learned) and flags unsanitized information flow
// from sources to sinks in propagation graphs (paper §3.4, §7.1).
package taint

import (
	"fmt"
	"sort"
	"strings"

	"seldon/internal/propgraph"
	"seldon/internal/pytoken"
	"seldon/internal/spec"
)

// Category classifies a report by the vulnerability class of its sink.
type Category string

// Vulnerability classes used in the paper's Q7/App. C.
const (
	SQLInjection     Category = "sql-injection"
	XSS              Category = "xss"
	PathTraversal    Category = "path-traversal"
	CommandInjection Category = "command-injection"
	CodeInjection    Category = "code-injection"
	OpenRedirect     Category = "open-redirect"
	GenericFlow      Category = "taint-flow"
)

// Report is one unsanitized source→sink flow.
type Report struct {
	File      string
	SourceID  int
	SinkID    int
	SourceRep string
	SinkRep   string
	SourcePos pytoken.Pos
	SinkPos   pytoken.Pos
	// Path is a witness event-ID path from source to sink that traverses
	// no sanitizer.
	Path     []int
	Category Category
}

func (r *Report) String() string {
	return fmt.Sprintf("%s:%s: unsanitized flow from %s (%s) to %s (%s) [%s]",
		r.File, r.SourcePos, r.SourceRep, r.SourcePos, r.SinkRep, r.SinkPos, r.Category)
}

// Analyze scans the propagation graph for flows from spec sources to spec
// sinks along paths that contain no spec sanitizer. An event takes a role
// when any of its representations carries that role in the specification
// and the event kind admits the role; blacklisted representations are
// ignored. Argument-sensitive sinks (spec.RestrictSinkArgs) are reported
// only when the tainted value enters through a dangerous position. One
// report is emitted per (source event, sink event) pair with a witness
// path.
func Analyze(g *propgraph.Graph, sp *spec.Spec) []Report {
	// Roles and the glob blacklist are resolved once per distinct symbol;
	// the per-event loops below are then pure array lookups.
	ix := sp.IndexSymbols(g.Syms)
	roles := assignRoles(g, ix)
	restr := sinkRestrictions(g, sp, ix, roles)
	var reports []Report
	for id := range g.Events {
		if !roles[id].Has(propgraph.Source) {
			continue
		}
		reports = append(reports, findFlows(g, roles, restr, id)...)
	}
	sort.SliceStable(reports, func(i, j int) bool {
		if reports[i].File != reports[j].File {
			return reports[i].File < reports[j].File
		}
		if reports[i].SourceID != reports[j].SourceID {
			return reports[i].SourceID < reports[j].SourceID
		}
		return reports[i].SinkID < reports[j].SinkID
	})
	return reports
}

// assignRoles maps each event to the roles its representations have in the
// specification.
func assignRoles(g *propgraph.Graph, ix *spec.SymIndex) []propgraph.RoleSet {
	roles := make([]propgraph.RoleSet, len(g.Events))
	for id := range g.Events {
		var rs propgraph.RoleSet
		for _, sym := range g.RepIDs(id) {
			if ix.Blacklisted(sym) {
				continue
			}
			rs |= ix.Roles(sym)
		}
		// Respect kind restrictions: a read can only be a source.
		rs &= g.Events[id].Roles
		roles[id] = rs
	}
	return roles
}

// sinkRestrictions computes, per sink event, the union of dangerous
// argument positions of its spec'd sink representations; a nil entry means
// the sink is unrestricted (any position is dangerous).
func sinkRestrictions(g *propgraph.Graph, sp *spec.Spec, ix *spec.SymIndex, roles []propgraph.RoleSet) [][]int {
	restr := make([][]int, len(g.Events))
	for id := range g.Events {
		if !roles[id].Has(propgraph.Sink) {
			continue
		}
		var positions []int
		restricted := true
		for i, sym := range g.RepIDs(id) {
			if !ix.Roles(sym).Has(propgraph.Sink) || ix.Blacklisted(sym) {
				continue
			}
			args := sp.SinkArgsOf(g.Rep(id, i))
			if args == nil {
				restricted = false
				break
			}
			positions = append(positions, args...)
		}
		if restricted {
			restr[id] = positions
		}
	}
	return restr
}

// argAllowed reports whether flow over edge prev→id may trigger the sink
// at id under its argument restriction.
func argAllowed(g *propgraph.Graph, restr [][]int, prev, id int) bool {
	allowed := restr[id]
	if allowed == nil {
		return true // unrestricted sink
	}
	labels := g.EdgeArgs(prev, id)
	if labels == nil {
		return true // unlabeled edge: position unknown, stay sound
	}
	for _, l := range labels {
		for _, a := range allowed {
			if l == a {
				return true
			}
		}
	}
	return false
}

// findFlows runs a DFS from the source that never enters sanitizer events,
// reporting each sink reached with its witness path.
func findFlows(g *propgraph.Graph, roles []propgraph.RoleSet, restr [][]int, src int) []Report {
	var reports []Report
	visited := make(map[int]bool)
	var path []int
	var dfs func(id int)
	dfs = func(id int) {
		if visited[id] {
			return
		}
		visited[id] = true
		path = append(path, id)
		defer func() { path = path[:len(path)-1] }()
		if id != src && roles[id].Has(propgraph.Sanitizer) {
			// Sanitized beyond this point: this path is safe. Other paths
			// around the sanitizer are explored from other branches.
			return
		}
		if id != src && roles[id].Has(propgraph.Sink) &&
			argAllowed(g, restr, path[len(path)-2], id) {
			sinkRep := bestRep(g, id)
			reports = append(reports, Report{
				File:      g.File(src),
				SourceID:  src,
				SinkID:    id,
				SourceRep: bestRep(g, src),
				SinkRep:   sinkRep,
				SourcePos: g.Events[src].Pos,
				SinkPos:   g.Events[id].Pos,
				Path:      append([]int(nil), path...),
				Category:  Classify(sinkRep),
			})
			// Continue: the sink's output may flow onward to other sinks.
		}
		for _, nxt := range g.Succs(id) {
			dfs(nxt)
		}
	}
	dfs(src)
	return reports
}

func bestRep(g *propgraph.Graph, id int) string {
	if g.NumReps(id) == 0 {
		return fmt.Sprintf("<event %d>", id)
	}
	return g.Rep(id, 0)
}

// Classify maps a sink representation to a vulnerability class.
func Classify(sinkRep string) Category {
	r := strings.ToLower(sinkRep)
	switch {
	case strings.Contains(r, "execute()") || strings.Contains(r, "raw()") ||
		strings.Contains(r, "rawsql") || strings.Contains(r, "runquery"):
		return SQLInjection
	case strings.Contains(r, "system()") || strings.Contains(r, "popen") ||
		strings.Contains(r, "subprocess") || strings.Contains(r, "spawn") ||
		strings.Contains(r, "shell"):
		return CommandInjection
	case strings.Contains(r, "eval()") || strings.Contains(r, "exec()") ||
		strings.Contains(r, "compile()"):
		return CodeInjection
	case strings.Contains(r, "send_file") || strings.Contains(r, "send_from_directory") ||
		strings.Contains(r, "open()") || strings.Contains(r, ".write()") ||
		strings.Contains(r, "save()"):
		return PathTraversal
	case strings.Contains(r, "redirect"):
		return OpenRedirect
	case strings.Contains(r, "response") || strings.Contains(r, "markup") ||
		strings.Contains(r, "render") || strings.Contains(r, "html") ||
		strings.Contains(r, "mark_safe") || strings.Contains(r, "make_response"):
		return XSS
	default:
		return GenericFlow
	}
}

// Summary aggregates reports for Table 7-style output.
type Summary struct {
	Total      int
	ByCategory map[Category]int
	Files      int // distinct files with at least one report
}

// Summarize computes aggregate statistics over reports.
func Summarize(reports []Report) Summary {
	s := Summary{ByCategory: make(map[Category]int)}
	files := make(map[string]bool)
	for i := range reports {
		s.Total++
		s.ByCategory[reports[i].Category]++
		files[reports[i].File] = true
	}
	s.Files = len(files)
	return s
}
