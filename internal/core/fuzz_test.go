package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"seldon/internal/dataflow"
	"seldon/internal/pyparse"
)

// FuzzFrontEndScratchEquivalence feeds arbitrary bytes to the front-end
// as a source file, once through the scratch-free entry points and once
// through AnalyzeFiles with a scratch that last analyzed a different
// file. Neither may panic, and both must report the same parse error and
// build byte-equal graphs: recycled memory never shows in a result. The
// seed corpus (testdata/fuzz) is the sources of examples/ plus lexer and
// parser edge cases, and the hostile bodies.
func FuzzFrontEndScratchEquivalence(f *testing.F) {
	f.Add([]byte(taintedSrc))
	for _, body := range hostileBodies {
		f.Add([]byte(body.src))
	}
	for _, body := range leftNestedBodies {
		f.Add([]byte(body.src(2000)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := string(data)
		mod, wantErr := pyparse.Parse("fuzz.py", src)
		want := dataflow.AnalyzeModule(mod, dataflow.Options{}).AppendBinary(nil)

		sc := new(Scratch)
		AnalyzeFiles(map[string]string{"other.py": dirtySrc}, Config{Workers: 1, Scratch: sc})
		fe := AnalyzeFiles(map[string]string{"fuzz.py": src}, Config{Workers: 1, Scratch: sc})

		if got := fe.Graphs[0].AppendBinary(nil); !bytes.Equal(got, want) {
			t.Errorf("graph differs between a nil and a dirty scratch")
		}
		switch {
		case wantErr == nil && len(fe.ParseErrs) != 0:
			t.Errorf("dirty scratch: parse error %q, nil scratch: none", fe.ParseErrs[0])
		case wantErr != nil && (len(fe.ParseErrs) != 1 || fe.ParseErrs[0].Error() != wantErr.Error()):
			t.Errorf("parse errors differ: dirty scratch %q, nil scratch %q", fe.ParseErrs, wantErr)
		}
	})
}

// hostileBodies are one-line sources that once ended the process that
// parsed them, each with the parse error it must now give instead: 200,000
// nested brackets overflowed the stack, and a 200,000-term right-nested
// power chain ran out of memory.
var hostileBodies = []struct{ name, src, err string }{
	{"nested-parens", "x = " + strings.Repeat("(", 200000) + "1" + strings.Repeat(")", 200000) + "\n",
		"app.py:1:205: too many nested parentheses"},
	{"power-chain", "x = y" + strings.Repeat("**y", 199999) + "\n",
		"app.py:1:3008: expression nested too deeply"},
}

// leftNestedBodies are one-line sources whose expression nests n deep to
// the left: a call on a call's result, and a chain of additions. Python
// sets no limit on either, so the front end's work on them must grow
// linearly in n; both once grew quadratically.
var leftNestedBodies = []struct {
	name string
	src  func(n int) string
}{
	{"call-chain", func(n int) string { return "x = f" + strings.Repeat("()", n) + "\n" }},
	{"add-chain", func(n int) string { return "x = 1" + strings.Repeat(" + 1", n-1) + "\n" }},
}

// TestLeftNestedBodiesScaleLinearly analyzes each left-nested body at n
// and 4n terms and counts the work: bytes and objects allocated, and
// events built. None may grow more than 4.5 times.
func TestLeftNestedBodiesScaleLinearly(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const n, growth = 2500, 4.5
	type work struct{ bytes, objects, events uint64 }
	count := func(src string) work {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fe := AnalyzeFiles(map[string]string{"app.py": src}, Config{Workers: 1})
		runtime.ReadMemStats(&m1)
		if len(fe.ParseErrs) != 0 {
			t.Fatalf("parse error %v", fe.ParseErrs[0])
		}
		return work{m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs, uint64(len(fe.Graphs[0].Events))}
	}
	for _, body := range leftNestedBodies {
		small, large := count(body.src(n)), count(body.src(4*n))
		t.Logf("%s at %d and %d terms: %+v, %+v", body.name, n, 4*n, small, large)
		for _, c := range []struct {
			what         string
			small, large uint64
		}{
			{"bytes allocated", small.bytes, large.bytes},
			{"objects allocated", small.objects, large.objects},
			{"events", small.events, large.events},
		} {
			if float64(c.large) > growth*float64(max(c.small, 1)) {
				t.Errorf("%s: %s grew from %d to %d, more than %.1fx", body.name, c.what, c.small, c.large, growth)
			}
		}
	}
}

// TestHostileBodiesAreParseErrors: each hostile body comes back from the
// front end as a parse error with a position, and a batch goes on past it.
func TestHostileBodiesAreParseErrors(t *testing.T) {
	for _, body := range hostileBodies {
		fe := AnalyzeFiles(map[string]string{"app.py": body.src, "ok.py": taintedSrc}, Config{Workers: 1})
		if len(fe.ParseErrs) != 1 || fe.ParseErrorFiles[0] != "app.py" ||
			!strings.HasPrefix(fe.ParseErrs[0].Error(), body.err) {
			t.Errorf("%s: parse errors %q in %q, want one starting %q in app.py",
				body.name, fe.ParseErrs, fe.ParseErrorFiles, body.err)
		}
		if len(fe.Graphs) != 2 || len(fe.Graphs[1].Events) == 0 {
			t.Errorf("%s: the file after it was not analyzed", body.name)
		}
	}
}

// dirtySrc leaves a scratch with tokens, nodes of most kinds, objects
// with fields, cloned environments and an error behind.
const dirtySrc = `import os, sys as system
from a.b import c as d

class Store(Base):
    def __init__(self, path, *rest, **opts):
        self.path = path
        self.items = [p for p in rest if p]
    def load(self, key):
        with open(self.path) as fh:
            data = fh.read()[key]
        try:
            return d.parse(data, strict=True) if data else None
        except ValueError as err:
            raise system.exit(f"bad {key!r}: {err}")

def main(argv):
    s = Store(argv[1], *argv[2:])
    while s.items:
        x = s.load(s.items.pop())
        x += os.environ['HOME']
    return lambda v: (v, x)
def broken(:
`
