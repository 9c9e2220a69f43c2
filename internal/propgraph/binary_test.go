package propgraph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"seldon/internal/envelope"
	"seldon/internal/pytoken"
)

// binaryTestGraph builds a graph exercising every encoded feature:
// multiple kinds, positions, backoff rep lists, role sets, edge
// insertion order, and argument labels (including the receiver/keyword
// sentinels).
func binaryTestGraph() *Graph {
	gb := new(Builder)
	a := gb.AddEvent(KindCall, "app.py", pytoken.Pos{Line: 3, Col: 4},
		[]string{"flask.request.args.get()", "request.args.get()", "args.get()"})
	b := gb.AddEvent(KindRead, "app.py", pytoken.Pos{Line: 5, Col: 0},
		[]string{"flask.request.form"})
	c := gb.AddEvent(KindParam, "app.py", pytoken.Pos{Line: 1, Col: 8}, []string{"handler:q"})
	d := gb.AddEvent(KindCall, "app.py", pytoken.Pos{Line: 9, Col: 2}, []string{"os.system()"})
	// Deliberately non-ascending insertion order on d's predecessors.
	gb.AddEdgeArg(b, d, 1)
	gb.AddEdgeArg(a, d, 0)
	gb.AddEdgeArg(a, d, ArgReceiver)
	gb.AddEdge(c, b)
	g := gb.Build()
	g.Events[b].Roles = SourceOnly
	return g
}

func TestBinaryRoundTrip(t *testing.T) {
	g := binaryTestGraph()
	enc := g.AppendBinary(nil)
	got, rest, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d unconsumed bytes", len(rest))
	}

	// The decoded graph must re-encode to the same bytes...
	if !bytes.Equal(got.AppendBinary(nil), enc) {
		t.Error("re-encode differs from original encoding")
	}
	// ...and agree with the JSON codec, which covers events, succ order,
	// and edge labels.
	var a, b bytes.Buffer
	if err := g.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("JSON of decoded graph differs:\n got %s\nwant %s", b.String(), a.String())
	}
	// Edge labels survive, sorted as AddEdgeArg keeps them.
	if args := got.EdgeArgs(0, 3); len(args) != 2 || args[0] != ArgReceiver || args[1] != 0 {
		t.Errorf("EdgeArgs(0,3) = %v", args)
	}
}

func TestBinaryDeterministic(t *testing.T) {
	g := binaryTestGraph()
	first := g.AppendBinary(nil)
	for i := 0; i < 16; i++ {
		if !bytes.Equal(g.AppendBinary(nil), first) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

func TestBinaryEmptyGraphAndRest(t *testing.T) {
	enc := new(Builder).Build().AppendBinary(nil)
	trailer := []byte("tail")
	g, rest, err := DecodeBinary(append(enc, trailer...))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Events) != 0 || g.NumEdges() != 0 {
		t.Errorf("decoded empty graph has %d events, %d edges", len(g.Events), g.NumEdges())
	}
	if !bytes.Equal(rest, trailer) {
		t.Errorf("rest = %q, want %q", rest, trailer)
	}
}

func TestBinaryRejectsMalformedInput(t *testing.T) {
	enc := binaryTestGraph().AppendBinary(nil)
	cases := map[string][]byte{
		"empty":       {},
		"bad tag":     append([]byte{0x00}, enc[1:]...),
		"bad version": append([]byte{binaryTag, 99}, enc[2:]...),
		"truncated":   enc[:len(enc)/2],
		"giant event count": append([]byte{binaryTag, binaryVersion,
			0xff, 0xff, 0xff, 0xff, 0x0f}, enc[3:]...),
	}
	for name, data := range cases {
		if _, _, err := DecodeBinary(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// Version-1 entries (pre-symbol-table layout) must be rejected outright —
// the fpcache turns that error into a miss and re-analyzes.
func TestBinaryRejectsVersion1(t *testing.T) {
	enc := binaryTestGraph().AppendBinary(nil)
	v1 := append([]byte{binaryTag, 1}, enc[2:]...)
	if _, _, err := DecodeBinary(v1); err == nil {
		t.Error("version-1 input accepted")
	}
}

// A symbol table with a duplicate string would silently shift every later
// symbol ID on decode; it must be treated as corruption.
func TestBinaryRejectsDuplicateSymbols(t *testing.T) {
	data := []byte{binaryTag, binaryVersion}
	data = binary.AppendUvarint(data, 2)
	data = envelope.AppendBytesV(data, "f()")
	data = envelope.AppendBytesV(data, "f()")
	data = binary.AppendUvarint(data, 0) // files
	data = binary.AppendUvarint(data, 0) // events
	data = binary.AppendUvarint(data, 0) // edge args
	if _, _, err := DecodeBinary(data); err == nil {
		t.Error("duplicate symbol table accepted")
	}
}

// Edge labels must arrive in the form AppendBinary writes: ascending
// edges that exist, each with a non-empty strictly ascending argument
// list. Union copies decoded labels verbatim, so anything else — which
// AddEdgeArg would have repaired or dropped — is corruption.
func TestBinaryRejectsMalformedEdgeArgs(t *testing.T) {
	b := new(Builder)
	for i := 0; i < 3; i++ {
		b.AddEvent(KindCall, "a.py", pytoken.Pos{Line: i + 1}, []string{"f()"})
	}
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	enc := b.Build().AppendBinary(nil)
	head := enc[:len(enc)-1] // everything up to the (zero) edge-arg count
	type label struct {
		src, dst int
		args     []int
	}
	with := func(labels ...label) []byte {
		data := binary.AppendUvarint(append([]byte(nil), head...), uint64(len(labels)))
		for _, l := range labels {
			data = binary.AppendUvarint(data, uint64(l.src))
			data = binary.AppendUvarint(data, uint64(l.dst))
			data = binary.AppendUvarint(data, uint64(len(l.args)))
			for _, a := range l.args {
				data = binary.AppendVarint(data, int64(a))
			}
		}
		return data
	}

	good := with(label{0, 2, []int{ArgReceiver, 0}}, label{1, 2, []int{1}})
	dec, rest, err := DecodeBinary(good)
	if err != nil || len(rest) != 0 {
		t.Fatalf("well-formed labels: err %v, %d bytes left", err, len(rest))
	}
	if !bytes.Equal(dec.AppendBinary(nil), good) {
		t.Fatal("well-formed labels do not round-trip")
	}

	cases := map[string][]byte{
		"descending edges":   with(label{1, 2, []int{1}}, label{0, 2, []int{0}}),
		"repeated edge":      with(label{0, 2, []int{0}}, label{0, 2, []int{1}}),
		"no such edge":       with(label{2, 0, []int{0}}),
		"empty list":         with(label{0, 2, nil}),
		"descending args":    with(label{0, 2, []int{1, 0}}),
		"repeated argument":  with(label{0, 2, []int{1, 1}}),
		"endpoint too large": with(label{0, 3, []int{0}}),
	}
	for name, data := range cases {
		if _, _, err := DecodeBinary(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// TestBinarySharesStrings pins the v2 size win: a graph whose events
// repeat representations and file names must encode smaller than the sum
// of its per-occurrence strings.
func TestBinaryStringTableCompression(t *testing.T) {
	b := new(Builder)
	for i := 0; i < 50; i++ {
		b.AddEvent(KindCall, "pkg/very/long/path/to/module.py",
			pytoken.Pos{Line: i + 1}, []string{"package.module.function()", "module.function()"})
	}
	g := b.Build()
	enc := g.AppendBinary(nil)
	perOccurrence := 0
	for id := range g.Events {
		perOccurrence += len(g.File(id))
		for _, r := range g.Reps(id) {
			perOccurrence += len(r)
		}
	}
	if len(enc) >= perOccurrence {
		t.Errorf("encoding %dB, not smaller than %dB of per-occurrence strings",
			len(enc), perOccurrence)
	}
	got, _, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.AppendBinary(nil), enc) {
		t.Error("round trip changed bytes")
	}
}

// TestDecodeAllMatchesDecodeBinary pins the parallel decoder to the loop
// it replaces, at one, two and eight processors, below the fan-out
// threshold and above it: the same graphs in the same order, and with
// malformed encodings among them the index and error of the lowest — a
// graph cut short, and a whole graph with bytes after it.
func TestDecodeAllMatchesDecodeBinary(t *testing.T) {
	var encs [][]byte
	for i, size := 0, 0; size <= 4*decodeFanoutBytes; i++ {
		g := labelledGraph(i, 5+i%60)
		if i%19 == 4 {
			g = new(Builder).Build()
		}
		encs = append(encs, g.AppendBinary(nil))
		size += len(encs[i])
	}
	withFaults := func(at ...int) [][]byte {
		out := slices.Clone(encs)
		for k, i := range at {
			if k%2 == 0 {
				out[i] = out[i][:len(out[i])-1]
			} else {
				out[i] = append(slices.Clone(out[i]), 0)
			}
		}
		return out
	}
	last := len(encs) - 1
	cases := []struct {
		name string
		encs [][]byte
		bad  int // -1: all decode
	}{
		{"none", nil, -1},
		{"few", encs[:7], -1},
		{"many", encs, -1},
		{"few, one fault", withFaults(5)[:7], 5},
		{"first", withFaults(0), 0},
		{"last", withFaults(last), last},
		{"trailing byte before a cut graph", withFaults(last, last/3), last / 3},
		{"one in every run", withFaults(last/8+1, last/2+1, last/4, last-1), last/8 + 1},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			graphs, bad, err := DecodeAll(tc.encs)
			if tc.bad >= 0 {
				_, rest, want := DecodeBinary(tc.encs[tc.bad])
				if want == nil {
					want = fmt.Errorf("propgraph: binary: %d bytes after graph", len(rest))
				}
				if graphs != nil || bad != tc.bad || err == nil || err.Error() != want.Error() {
					t.Errorf("%s, GOMAXPROCS=%d: fault (%d, %v), want (%d, %v)", tc.name, procs, bad, err, tc.bad, want)
				}
				continue
			}
			if err != nil || len(graphs) != len(tc.encs) {
				t.Fatalf("%s, GOMAXPROCS=%d: %d graphs of %d, fault (%d, %v)", tc.name, procs, len(graphs), len(tc.encs), bad, err)
			}
			for i, g := range graphs {
				if !bytes.Equal(g.AppendBinary(nil), tc.encs[i]) {
					t.Fatalf("%s, GOMAXPROCS=%d: graph %d does not re-encode to its bytes", tc.name, procs, i)
				}
			}
		}
	}
}
