package dataflow

import (
	"bytes"
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
