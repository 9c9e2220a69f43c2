package fpcache

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"seldon/internal/envelope"
	"seldon/internal/propgraph"
)

// TestRecordListRoundTrip: ReadRecords gives back what AppendRecords
// wrote, graphs decoded, and refuses a list out of name order and one
// whose graph does not decode, naming the lowest fault.
func TestRecordListRoundTrip(t *testing.T) {
	g := testRecord(t).Graph
	list := func(names ...string) []byte {
		recs := make([]Record, len(names))
		for i, name := range names {
			recs[i] = Record{Name: name, ParseError: "e" + name, Graph: g}
		}
		return AppendRecords(nil, len(recs), func(i int) *Record { return &recs[i] })
	}
	r := envelope.NewReader(list("a.py", "b.py", "c.py"))
	recs, graphs, err := ReadRecords(r)
	if err != nil || r.Close() != nil {
		t.Fatalf("ReadRecords: %v", err)
	}
	var names []string
	for i, rec := range recs {
		names = append(names, rec.Name)
		if rec.ParseError != "e"+rec.Name || !bytes.Equal(rec.Graph, g) || !bytes.Equal(graphs[i].AppendBinary(nil), g) {
			t.Errorf("record %q did not come back as written", rec.Name)
		}
	}
	if !slices.Equal(names, []string{"a.py", "b.py", "c.py"}) {
		t.Fatalf("read %q", names)
	}

	for _, order := range [][]string{{"b.py", "a.py"}, {"a.py", "a.py"}} {
		if _, _, err := ReadRecords(envelope.NewReader(list(order...))); err == nil || !strings.Contains(err.Error(), "sorted order") {
			t.Errorf("%q: %v, want an order fault", order, err)
		}
	}

	// b.py's graph is bad and a.py follows it out of order: the graph,
	// read first, is the fault.
	badGraph := []byte{0}
	if _, _, err := propgraph.DecodeBinary(badGraph); err == nil {
		t.Fatal("the bad graph decodes")
	}
	bad := AppendRecords(nil, 2, func(i int) *Record {
		return &[]Record{{Name: "b.py", Graph: badGraph}, {Name: "a.py", Graph: g}}[i]
	})
	if _, _, err := ReadRecords(envelope.NewReader(bad)); err == nil || !strings.Contains(err.Error(), `graph section for "b.py"`) {
		t.Errorf("bad graph before a name out of order: %v", err)
	}
}
