package dataflow

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"seldon/internal/corpus"
	"seldon/internal/pyparse"
)

// A graph built through a scratch — whatever the scratch analyzed before
// — is byte-identical to the scratch-free one, and does not change when
// the scratch is overwritten afterwards.
func TestAnalyzeModuleScratch(t *testing.T) {
	c := corpus.Generate(corpus.Config{Files: 16, Seed: 7})
	sc := new(Scratch)
	for round := 0; round < 2; round++ {
		for _, f := range c.Files {
			mod, err := pyparse.Parse(f.Name, f.Source)
			if err != nil {
				t.Fatal(err)
			}
			want := AnalyzeModule(mod, Options{}).AppendBinary(nil)
			g := AnalyzeModule(mod, Options{Scratch: sc})
			if !bytes.Equal(g.AppendBinary(nil), want) {
				t.Fatalf("round %d: graph of %s differs with a scratch", round, f.Name)
			}
			sc.Poison()
			if !bytes.Equal(g.AppendBinary(nil), want) {
				t.Fatalf("round %d: graph of %s changed when the scratch was overwritten", round, f.Name)
			}
		}
	}
}

// Reset lets go of what a huge module grew, maps included.
func TestScratchResetCaps(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 3000; i++ {
		src.WriteString("def f")
		src.WriteString(strings.Repeat("x", i%7+1))
		src.WriteString("(a, b):\n    if a:\n        c = a.g(b)\n    return c.h(a[0])\n")
	}
	mod, err := pyparse.Parse("huge.py", src.String())
	if err != nil {
		t.Fatal(err)
	}
	sc := new(Scratch)
	AnalyzeModule(mod, Options{Scratch: sc})
	grown := sc.Retained()
	if d := sc.Reset(); d == 0 {
		t.Fatal("Reset after a huge module reported no drop")
	}
	limit := len(sc.buffers())*maxArenaBytes + 6*16*maxBufferLen
	if got := sc.Retained(); got > limit || got >= grown {
		t.Fatalf("scratch retains %d bytes after Reset (held %d), limit %d", got, grown, limit)
	}
	for _, p := range []int{len(sc.vars.maps), len(sc.bound.maps), len(sc.funcs.maps), len(sc.fieldMaps.maps)} {
		if p > maxPooledMaps {
			t.Fatalf("a map pool retains %d maps, cap %d", p, maxPooledMaps)
		}
	}
}

// A literal display costs the scratch linear room in its length: tuple,
// list, set and dict displays of n and 4n elements may grow what the
// scratch holds after the analysis by at most 4.5×. A union per element,
// which copies the set built so far, grows it 12–17× (and holds 1.2 GB for
// the 8000-pair dict).
func TestDisplayScratchIsLinear(t *testing.T) {
	const n = 2000
	display := func(open, close string, m int, elem func(i int) string) string {
		var src strings.Builder
		src.WriteString("x = " + open)
		for i := 0; i < m; i++ {
			src.WriteString(elem(i) + ", ")
		}
		return src.String() + close + "\n"
	}
	str := func(i int) string { return fmt.Sprintf("'s%d'", i) }
	pair := func(i int) string { return fmt.Sprintf("'k%d': 'v%d'", i, i) }
	for _, shape := range []struct {
		name, open, close string
		elem              func(int) string
	}{
		{"tuple", "(", ")", str},
		{"list", "[", "]", str},
		{"set", "{", "}", str},
		{"dict", "{", "}", pair},
	} {
		retained := func(m int) int {
			mod, err := pyparse.Parse("table.py", display(shape.open, shape.close, m, shape.elem))
			if err != nil {
				t.Fatal(err)
			}
			sc := new(Scratch)
			AnalyzeModule(mod, Options{Scratch: sc})
			return sc.Retained()
		}
		small, large := retained(n), retained(4*n)
		t.Logf("%s: %d bytes at %d elements, %d at %d", shape.name, small, n, large, 4*n)
		if float64(large) > 4.5*float64(small) {
			t.Errorf("%s display: scratch holds %d bytes at %d elements, %d at %d: more than 4.5×",
				shape.name, small, n, large, 4*n)
		}
	}
}
