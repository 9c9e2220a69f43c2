package propgraph

import (
	"bytes"
	"testing"
)

// TestUnionBuilderMatchesUnion pins the builder's contract: adding
// graphs one at a time produces a graph byte-identical to Union over
// the same inputs — at every prefix, not just the end — and so does
// adding several in one call behind the ones already there.
func TestUnionBuilderMatchesUnion(t *testing.T) {
	inputs := []*Graph{
		pseudoGraph(1, 12),
		NewBuilder().Build(), // empty input mid-sequence
		pseudoGraph(2, 25),
		pseudoGraph(3, 1),
		pseudoGraph(1, 7), // repeated symbols translate to existing IDs
	}
	b := NewUnionBuilder()
	for i, in := range inputs {
		b.Add(in)
		want := Union(inputs[:i+1]...).AppendBinary(nil)
		got := b.Graph().AppendBinary(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("after %d adds: builder graph differs from Union (%d vs %d bytes)",
				i+1, len(got), len(want))
		}
	}
	b = NewUnionBuilder()
	b.Add(inputs[:2]...)
	b.Add()
	b.Add(inputs[2:]...)
	if !bytes.Equal(b.Graph().AppendBinary(nil), Union(inputs...).AppendBinary(nil)) {
		t.Fatal("Add(a, b) then Add(c, d, e) differs from Union and from five Adds")
	}
}

// TestUnionBuilderEmpty: a builder with no adds is the empty union.
func TestUnionBuilderEmpty(t *testing.T) {
	got := NewUnionBuilder().Graph()
	if len(got.Events) != 0 {
		t.Fatalf("empty builder has %d events", len(got.Events))
	}
	want := Union().AppendBinary(nil)
	if !bytes.Equal(got.AppendBinary(nil), want) {
		t.Fatal("empty builder graph differs from Union()")
	}
}
