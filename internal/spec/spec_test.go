package spec

import (
	"strings"
	"testing"
	"testing/quick"

	"seldon/internal/propgraph"
)

func TestParseRoundTrip(t *testing.T) {
	text := `# comment
o: request.args.get()
a: flask.escape()
i: flask.Response()
b: *.append()
`
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sources) != 1 || len(s.Sanitizers) != 1 || len(s.Sinks) != 1 || len(s.Blacklist) != 1 {
		t.Fatalf("parsed = %+v", s)
	}
	s2, err := Parse(s.Format())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Format() != s.Format() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", s.Format(), s2.Format())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"x: y\n", "o:\n", "nonsense\n"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestRolesOf(t *testing.T) {
	s := New()
	s.Add(propgraph.Source, "a()")
	s.Add(propgraph.Sink, "a()")
	rs := s.RolesOf("a()")
	if !rs.Has(propgraph.Source) || !rs.Has(propgraph.Sink) || rs.Has(propgraph.Sanitizer) {
		t.Errorf("roles = %b", rs)
	}
	if s.RolesOf("missing()") != 0 {
		t.Error("missing rep has roles")
	}
	// Duplicate adds must not duplicate entries.
	s.Add(propgraph.Source, "a()")
	if len(s.Sources) != 1 {
		t.Errorf("sources = %v", s.Sources)
	}
}

func TestPatternMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"*.append()", "result.append()", true},
		{"*.append()", "x.y.append()", true},
		{"*.append()", "append()", false},
		{"*.append()", "x.appendix()", false},
		{"os.path.*", "os.path.join()", true},
		{"os.path.*", "ospath.join()", false},
		{"*tensorflow*", "tensorflow.layers.dense()", true},
		{"*tensorflow*", "my.tensorflow.thing", true},
		{"str", "str", true},
		{"str", "str()", false},
		{"*.split()*", "key.split()", true},
		{"*.split()*", "key.split()[0]", true},
		{"*len()", "len()", true},
		{"*len()", "x.len()", true},
		{"flask.Flask()*", "flask.Flask().run()", true},
		{"flask.Flask()*", "flask.Flask()", true},
		{"a*b*c", "aXbYc", true},
		{"a*b*c", "acb", false},
		{"a*bb", "abb", true},
		{"a*b*b", "ab", false},
	}
	for _, c := range cases {
		p := CompilePattern(c.pattern)
		if got := p.Match(c.s); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

// Property: a pattern with stars removed matches itself exactly.
func TestPatternLiteralProperty(t *testing.T) {
	f := func(s string) bool {
		lit := strings.ReplaceAll(s, "*", "")
		return CompilePattern(lit).Match(lit)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: "*s*" matches any string containing s.
func TestPatternContainsProperty(t *testing.T) {
	f := func(pre, mid, post string) bool {
		mid = strings.ReplaceAll(mid, "*", "")
		p := CompilePattern("*" + mid + "*")
		return p.Match(pre + mid + post)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeedStatistics(t *testing.T) {
	s := Seed()
	// The paper reports 28 sources, 30 sanitizers, 48 sinks (106 total).
	if len(s.Sources) != 28 {
		t.Errorf("sources = %d, want 28", len(s.Sources))
	}
	if len(s.Sanitizers) != 30 {
		t.Errorf("sanitizers = %d, want 30", len(s.Sanitizers))
	}
	if len(s.Sinks) != 48 {
		t.Errorf("sinks = %d, want 48", len(s.Sinks))
	}
	if s.Len() != 106 {
		t.Errorf("total = %d, want 106", s.Len())
	}
	if len(s.Blacklist) < 150 {
		t.Errorf("blacklist = %d, want >= 150", len(s.Blacklist))
	}
}

func TestSeedLookups(t *testing.T) {
	s := Seed()
	if !s.RolesOf("flask.request.form.get()").Has(propgraph.Source) {
		t.Error("flask.request.form.get() should be a source")
	}
	if !s.RolesOf("werkzeug.utils.secure_filename()").Has(propgraph.Sanitizer) {
		t.Error("secure_filename should be a sanitizer")
	}
	if !s.RolesOf("os.system()").Has(propgraph.Sink) {
		t.Error("os.system should be a sink")
	}
	if !s.Blacklisted("result.append()") {
		t.Error("result.append() should be blacklisted")
	}
	if !s.Blacklisted("logging.info()") {
		t.Error("logging.info() should be blacklisted")
	}
	if s.Blacklisted("cursor.execute()") {
		t.Error("cursor.execute() must not be blacklisted")
	}
}

func TestEntries(t *testing.T) {
	s := New()
	s.Add(propgraph.Sink, "k()")
	s.Add(propgraph.Source, "o()")
	es := s.Entries()
	if len(es) != 2 {
		t.Fatalf("entries = %v", es)
	}
	// Sources come first in canonical order.
	if es[0].Role != propgraph.Source || es[1].Role != propgraph.Sink {
		t.Errorf("order = %v", es)
	}
}
