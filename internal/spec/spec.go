// Package spec models taint specifications: assignments of the roles
// source, sanitizer, and sink to API representations, plus a blacklist of
// representations excluded from every role.
//
// The textual format follows the paper's App. B seed specification:
//
//	o: flask.request.form.get()     # source
//	a: werkzeug.utils.secure_filename()  # sanitizer
//	i: flask.send_file()            # sink
//	b: *.append()                   # blacklisted pattern
//
// Blank lines and lines starting with '#' are ignored. Blacklist entries
// are glob patterns where '*' matches any (possibly empty) substring;
// source/sanitizer/sink entries are exact fully-qualified representations.
package spec

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"seldon/internal/propgraph"
)

// Spec is a taint specification.
type Spec struct {
	Sources    []string
	Sanitizers []string
	Sinks      []string
	Blacklist  []Pattern

	roleByRep map[string]propgraph.RoleSet
	// sinkArgs optionally restricts a sink to specific dangerous argument
	// positions (argument-sensitive sinks; `i: rep @0,1` in the textual
	// format). Absent means every position is dangerous.
	sinkArgs map[string][]int
}

// New returns an empty specification.
func New() *Spec {
	return &Spec{roleByRep: make(map[string]propgraph.RoleSet)}
}

// Add records rep as having role.
func (s *Spec) Add(role propgraph.Role, rep string) {
	if s.roleByRep == nil {
		s.roleByRep = make(map[string]propgraph.RoleSet)
	}
	if s.roleByRep[rep].Has(role) {
		return
	}
	switch role {
	case propgraph.Source:
		s.Sources = append(s.Sources, rep)
	case propgraph.Sanitizer:
		s.Sanitizers = append(s.Sanitizers, rep)
	case propgraph.Sink:
		s.Sinks = append(s.Sinks, rep)
	}
	s.roleByRep[rep] = s.roleByRep[rep].With(role)
}

// AddBlacklist records a blacklist pattern.
func (s *Spec) AddBlacklist(pattern string) {
	s.Blacklist = append(s.Blacklist, CompilePattern(pattern))
}

// RolesOf returns the roles assigned to an exact representation.
func (s *Spec) RolesOf(rep string) propgraph.RoleSet { return s.roleByRep[rep] }

// RestrictSinkArgs marks only the given 0-based argument positions of a
// sink as dangerous. Flow entering other positions will not be reported.
func (s *Spec) RestrictSinkArgs(rep string, args ...int) {
	if s.sinkArgs == nil {
		s.sinkArgs = make(map[string][]int)
	}
	s.sinkArgs[rep] = append([]int(nil), args...)
}

// SinkArgsOf returns the dangerous argument positions of a sink, or nil
// when the sink is unrestricted.
func (s *Spec) SinkArgsOf(rep string) []int { return s.sinkArgs[rep] }

// Len returns the number of role entries.
func (s *Spec) Len() int { return len(s.Sources) + len(s.Sanitizers) + len(s.Sinks) }

// Blacklisted reports whether rep matches any blacklist pattern.
func (s *Spec) Blacklisted(rep string) bool {
	for _, p := range s.Blacklist {
		if p.Match(rep) {
			return true
		}
	}
	return false
}

// Entries returns all (role, rep) pairs in canonical order.
func (s *Spec) Entries() []Entry {
	var out []Entry
	for _, r := range s.Sources {
		out = append(out, Entry{Rep: r, Role: propgraph.Source, Score: 1})
	}
	for _, r := range s.Sanitizers {
		out = append(out, Entry{Rep: r, Role: propgraph.Sanitizer, Score: 1})
	}
	for _, r := range s.Sinks {
		out = append(out, Entry{Rep: r, Role: propgraph.Sink, Score: 1})
	}
	return out
}

// SymIndex caches per-symbol role and blacklist lookups against one
// symbol table: RolesOf and the glob-pattern blacklist are evaluated
// once per distinct representation instead of once per occurrence, and
// every later lookup is a dense array index. Build it with IndexSymbols
// after the table has stabilized (e.g. over a union graph's table); it
// covers the symbols present at build time.
type SymIndex struct {
	roles []propgraph.RoleSet
	black []bool
}

// IndexSymbols precomputes role and blacklist lookups for every symbol
// of t.
func (s *Spec) IndexSymbols(t *propgraph.Interner) *SymIndex {
	return s.IndexStrings(t.Strings())
}

// IndexStrings precomputes role and blacklist lookups for a symbol-table
// snapshot (strs[sym] is the string of sym).
func (s *Spec) IndexStrings(strs []string) *SymIndex {
	ix := &SymIndex{
		roles: make([]propgraph.RoleSet, len(strs)),
		black: make([]bool, len(strs)),
	}
	for i, str := range strs {
		ix.roles[i] = s.RolesOf(str)
		ix.black[i] = s.Blacklisted(str)
	}
	return ix
}

// Roles returns the roles assigned to a symbol (0 when out of range).
func (ix *SymIndex) Roles(sym propgraph.Sym) propgraph.RoleSet {
	if int(sym) >= len(ix.roles) {
		return 0
	}
	return ix.roles[sym]
}

// Blacklisted reports whether a symbol matches any blacklist pattern.
func (ix *SymIndex) Blacklisted(sym propgraph.Sym) bool {
	if int(sym) >= len(ix.black) {
		return false
	}
	return ix.black[sym]
}

// Entry is a single learned or seeded role assignment with its confidence.
type Entry struct {
	Rep   string
	Role  propgraph.Role
	Score float64
}

// Parse reads a specification in the o:/a:/i:/b: line format.
func Parse(text string) (*Spec, error) {
	s := New()
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if len(line) < 2 || line[1] != ':' {
			return nil, fmt.Errorf("spec line %d: want `o:|a:|i:|b: <rep>`, got %q", lineNo, line)
		}
		rep := strings.TrimSpace(line[2:])
		if rep == "" {
			return nil, fmt.Errorf("spec line %d: empty representation", lineNo)
		}
		// Optional argument restriction for sinks: `i: rep @0,2`.
		var args []int
		if at := strings.LastIndex(rep, " @"); at >= 0 && line[0] == 'i' {
			spec := rep[at+2:]
			rep = strings.TrimSpace(rep[:at])
			for _, part := range strings.Split(spec, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return nil, fmt.Errorf("spec line %d: bad argument position %q", lineNo, part)
				}
				args = append(args, n)
			}
		}
		switch line[0] {
		case 'o':
			s.Add(propgraph.Source, rep)
		case 'a':
			s.Add(propgraph.Sanitizer, rep)
		case 'i':
			s.Add(propgraph.Sink, rep)
			if len(args) > 0 {
				s.RestrictSinkArgs(rep, args...)
			}
		case 'b':
			s.AddBlacklist(rep)
		default:
			return nil, fmt.Errorf("spec line %d: unknown role %q", lineNo, line[0])
		}
	}
	return s, sc.Err()
}

// Pattern is a compiled glob where '*' matches any substring.
type Pattern struct {
	raw   string
	parts []string // literal chunks between stars
	// anchored flags: leading/trailing literal must match at the ends
	prefix bool
	suffix bool
}

// CompilePattern compiles a glob pattern.
func CompilePattern(raw string) Pattern {
	parts := strings.Split(raw, "*")
	return Pattern{
		raw:    raw,
		parts:  parts,
		prefix: !strings.HasPrefix(raw, "*"),
		suffix: !strings.HasSuffix(raw, "*"),
	}
}

func (p Pattern) String() string { return p.raw }

// Match reports whether s matches the pattern.
func (p Pattern) Match(s string) bool {
	parts := p.parts
	if len(parts) == 1 {
		return s == parts[0]
	}
	if p.prefix {
		if !strings.HasPrefix(s, parts[0]) {
			return false
		}
		s = s[len(parts[0]):]
		parts = parts[1:]
	}
	var last string
	if p.suffix {
		last = parts[len(parts)-1]
		parts = parts[:len(parts)-1]
	}
	for _, chunk := range parts {
		if chunk == "" {
			continue
		}
		idx := strings.Index(s, chunk)
		if idx < 0 {
			return false
		}
		s = s[idx+len(chunk):]
	}
	if p.suffix {
		return strings.HasSuffix(s, last)
	}
	return true
}
