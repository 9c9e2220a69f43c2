package corpus

import (
	"strings"

	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

// Truth is the ground-truth role oracle for generated corpora. It knows
// the true roles of every catalog API — under its fully qualified
// representation and all dotted suffixes (backoff options) — so learned
// specifications can be scored exactly.
type Truth struct {
	roles map[string]propgraph.RoleSet
	// known marks every representation that belongs to the catalog at
	// all, including the role-less noise APIs.
	known map[string]bool
	// sourcePatterns are glob rules granting the source role to families
	// of representations, e.g. every Django view's request parameter.
	sourcePatterns []spec.Pattern
}

// NewTruth builds the oracle from the API catalog.
func NewTruth() *Truth {
	t := &Truth{
		roles: make(map[string]propgraph.RoleSet),
		known: make(map[string]bool),
	}
	add := func(rep string, role propgraph.Role, hasRole bool) {
		for _, suffix := range repSuffixes(rep) {
			t.known[suffix] = true
			if hasRole {
				t.roles[suffix] = t.roles[suffix].With(role)
			}
		}
	}
	for _, a := range sourceAPIs {
		add(a.rep, a.role, true)
	}
	for _, a := range djangoSourceAPIs {
		add(a.rep, a.role, true)
	}
	// Django's request parameter and anything read off it is
	// attacker-controlled, whichever view it appears in.
	t.sourcePatterns = append(t.sourcePatterns,
		spec.CompilePattern("*(param request)"),
		spec.CompilePattern("*(param request).*"),
		spec.CompilePattern("request.GET*"),
		spec.CompilePattern("request.POST*"),
		spec.CompilePattern("request.META*"),
		spec.CompilePattern("request.body*"),
	)
	for _, a := range sanitizerAPIs {
		add(a.rep, a.role, true)
	}
	for _, a := range sinkAPIs {
		add(a.rep, a.role, true)
	}
	for _, a := range noneAPIs {
		add(a.rep, 0, false)
	}
	// Prefixes of catalog sources that are themselves user-controlled
	// data (reading request.files['f'] is as attacker-controlled as
	// reading its .filename).
	add("flask.request.files['f']", propgraph.Source, true)
	add("bottle.request.query", propgraph.Source, true)
	return t
}

// repSuffixes returns the dotted suffixes of rep with at least two
// segments (plus rep itself), mirroring propgraph.AppendSuffixReps.
func repSuffixes(rep string) []string {
	segs := strings.Split(rep, ".")
	if len(segs) <= 2 {
		return []string{rep}
	}
	out := make([]string, 0, len(segs)-1)
	for i := 0; i+2 <= len(segs); i++ {
		out = append(out, strings.Join(segs[i:], "."))
	}
	return out
}

// HasRole reports whether rep truly has the role.
func (t *Truth) HasRole(rep string, role propgraph.Role) bool {
	if t.roles[rep].Has(role) {
		return true
	}
	if role == propgraph.Source {
		for _, p := range t.sourcePatterns {
			if p.Match(rep) {
				return true
			}
		}
	}
	return false
}

// RolesOf returns the true roles of rep (0 when unknown or role-less).
func (t *Truth) RolesOf(rep string) propgraph.RoleSet { return t.roles[rep] }

// Known reports whether rep belongs to the catalog at all.
func (t *Truth) Known(rep string) bool { return t.known[rep] }

// SeededReps returns the catalog reps marked as present in the paper's
// seed, useful for building the experiment seed specification.
func SeededReps() (sources, sanitizers, sinks []string) {
	for _, a := range sourceAPIs {
		if a.seeded {
			sources = append(sources, a.rep)
		}
	}
	for _, a := range djangoSourceAPIs {
		if a.seeded {
			sources = append(sources, a.rep)
		}
	}
	for _, a := range sanitizerAPIs {
		if a.seeded {
			sanitizers = append(sanitizers, a.rep)
		}
	}
	for _, a := range sinkAPIs {
		if a.seeded {
			sinks = append(sinks, a.rep)
		}
	}
	sinks = append(sinks, "MySQLdb.connect().cursor().execute()")
	return sources, sanitizers, sinks
}

// LearnableReps returns the catalog reps NOT in the seed — the
// specifications a learner can newly discover.
func LearnableReps() map[string]propgraph.Role {
	out := make(map[string]propgraph.Role)
	for _, a := range sourceAPIs {
		if !a.seeded {
			out[a.rep] = a.role
		}
	}
	for _, a := range djangoSourceAPIs {
		if !a.seeded {
			out[a.rep] = a.role
		}
	}
	for _, a := range sanitizerAPIs {
		if !a.seeded {
			out[a.rep] = a.role
		}
	}
	for _, a := range sinkAPIs {
		if !a.seeded {
			out[a.rep] = a.role
		}
	}
	return out
}

// ExperimentSeed builds the seed specification used by the corpus
// experiments: the seeded catalog entries and their dotted suffixes (the
// paper's App. B seed likewise lists both request.form.get() and
// flask.request.form.get()), plus a small blacklist of framework noise in
// the spirit of the paper's 192 patterns.
func ExperimentSeed() *spec.Spec {
	s := spec.New()
	add := func(role propgraph.Role, rep string) {
		for _, suffix := range repSuffixes(rep) {
			s.Add(role, suffix)
		}
	}
	srcs, sans, snks := SeededReps()
	for _, r := range srcs {
		add(propgraph.Source, r)
	}
	for _, r := range sans {
		add(propgraph.Sanitizer, r)
	}
	for _, r := range snks {
		add(propgraph.Sink, r)
	}
	for _, pattern := range []string{
		"flask.Flask()*", "app.*", "*logging*", "mathx.*", "*.append()",
		"*.split()*", "*.keys()", "*.values()",
	} {
		s.AddBlacklist(pattern)
	}
	return s
}

// ArgSensitiveSeed is ExperimentSeed with every seeded sink restricted to
// its dangerous first argument — the §3.3 argument-sensitive extension.
// Every catalog sink receives the tainted value positionally, so the
// restriction suppresses exactly the "flows into wrong parameter" reports.
func ArgSensitiveSeed() *spec.Spec {
	s := ExperimentSeed()
	_, _, snks := SeededReps()
	for _, rep := range snks {
		for _, suffix := range repSuffixes(rep) {
			s.RestrictSinkArgs(suffix, 0)
		}
	}
	return s
}
