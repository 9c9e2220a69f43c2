package propgraph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"seldon/internal/envelope"
	"seldon/internal/pytoken"
)

// TestGraphLayoutIsPointerFree pins the layout: an event, and every
// element of a graph's per-event and per-edge arrays, holds no pointer,
// string, slice, map, interface, channel or function, so the collector
// marks each of a graph's arrays without scanning it, however many events
// it has. The symbol table and the file table are one per graph.
func TestGraphLayoutIsPointerFree(t *testing.T) {
	perGraph := map[string]bool{"Syms": true, "files": true}
	gt := reflect.TypeOf(Graph{})
	for i := 0; i < gt.NumField(); i++ {
		f := gt.Field(i)
		if perGraph[f.Name] {
			continue
		}
		if f.Type.Kind() != reflect.Slice {
			t.Errorf("Graph.%s is a %v, not an array", f.Name, f.Type)
			continue
		}
		if at := referenceIn(f.Type.Elem(), f.Type.Elem().String()); at != "" {
			t.Errorf("an element of Graph.%s holds a reference: %s", f.Name, at)
		}
	}
	if n := unsafe.Sizeof(Event{}); n > 48 {
		t.Errorf("an event takes %d bytes, want at most 48", n)
	}
}

// referenceIn returns the path to the first field of t that the collector
// would have to scan, or "" when there is none.
func referenceIn(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
		return path + " (" + t.Kind().String() + ")"
	case reflect.Array:
		return referenceIn(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if at := referenceIn(t.Field(i).Type, path+"."+t.Field(i).Name); at != "" {
				return at
			}
		}
	}
	return ""
}

// refGraph is the map-based model FuzzGraphBuilder holds the Builder to:
// what AddEvent, AddEdge and AddEdgeArg mean, written the plainest way.
type refGraph struct {
	syms, files []string
	events      []refEvent
	succ        [][]int
	edges       map[[2]int]map[int]bool // each edge, with its labels
}

type refEvent struct {
	kind      EventKind
	file      int
	pos       pytoken.Pos
	reps      []int
	wantReps  []string
	wantRoles RoleSet
}

func newRefGraph() *refGraph {
	return &refGraph{edges: make(map[[2]int]map[int]bool)}
}

func (m *refGraph) addEvent(kind EventKind, file string, pos pytoken.Pos, reps []string) {
	e := refEvent{kind: kind, pos: pos, wantReps: slices.Clone(reps), wantRoles: CandidateRoles(kind)}
	e.file = slices.Index(m.files, file)
	if e.file < 0 {
		e.file = len(m.files)
		m.files = append(m.files, file)
	}
	for _, r := range reps {
		s := slices.Index(m.syms, r)
		if s < 0 {
			s = len(m.syms)
			m.syms = append(m.syms, r)
		}
		e.reps = append(e.reps, s)
	}
	m.events = append(m.events, e)
	m.succ = append(m.succ, nil)
}

func (m *refGraph) addEdge(src, dst int) bool {
	if src == dst || src < 0 || dst < 0 || src >= len(m.events) || dst >= len(m.events) {
		return false
	}
	if m.edges[[2]int{src, dst}] == nil {
		m.edges[[2]int{src, dst}] = make(map[int]bool)
		m.succ[src] = append(m.succ[src], dst)
	}
	return true
}

func (m *refGraph) addEdgeArg(src, dst, arg int) {
	if m.addEdge(src, dst) {
		m.edges[[2]int{src, dst}][arg] = true
	}
}

func (m *refGraph) args(src, dst int) []int {
	var out []int
	for a := range m.edges[[2]int{src, dst}] {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// encode writes the binary format from the model.
func (m *refGraph) encode() []byte {
	dst := []byte{binaryTag, binaryVersion}
	dst = binary.AppendUvarint(dst, uint64(len(m.syms)))
	for _, s := range m.syms {
		dst = envelope.AppendBytesV(dst, s)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.files)))
	for _, f := range m.files {
		dst = envelope.AppendBytesV(dst, f)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.events)))
	for _, e := range m.events {
		dst = binary.AppendUvarint(dst, uint64(e.kind))
		dst = binary.AppendUvarint(dst, uint64(e.file))
		dst = binary.AppendVarint(dst, int64(e.pos.Line))
		dst = binary.AppendVarint(dst, int64(e.pos.Col))
		dst = binary.AppendUvarint(dst, uint64(len(e.reps)))
		for _, r := range e.reps {
			dst = binary.AppendUvarint(dst, uint64(r))
		}
		dst = append(dst, byte(e.wantRoles))
	}
	var labeled [][2]int
	for src, ss := range m.succ {
		dst = binary.AppendUvarint(dst, uint64(len(ss)))
		for _, d := range ss {
			dst = binary.AppendUvarint(dst, uint64(d))
			if len(m.edges[[2]int{src, d}]) > 0 {
				labeled = append(labeled, [2]int{src, d})
			}
		}
	}
	slices.SortFunc(labeled, func(a, b [2]int) int { return int(edgeKey(a[0], a[1]) - edgeKey(b[0], b[1])) })
	dst = binary.AppendUvarint(dst, uint64(len(labeled)))
	for _, e := range labeled {
		args := m.args(e[0], e[1])
		dst = binary.AppendUvarint(dst, uint64(e[0]))
		dst = binary.AppendUvarint(dst, uint64(e[1]))
		dst = binary.AppendUvarint(dst, uint64(len(args)))
		for _, a := range args {
			dst = binary.AppendVarint(dst, int64(a))
		}
	}
	return dst
}

// compare reports the first way g differs from the model.
func (m *refGraph) compare(g *Graph) error {
	if len(g.Events) != len(m.events) {
		return fmt.Errorf("%d events, want %d", len(g.Events), len(m.events))
	}
	preds := make([][]int, len(m.events))
	for src, ss := range m.succ {
		for _, d := range ss {
			preds[d] = append(preds[d], src)
		}
	}
	for id, w := range m.events {
		e := g.Events[id]
		if e.Kind != w.kind || e.Pos != w.pos || e.Roles != w.wantRoles || g.File(id) != m.files[w.file] ||
			!slices.Equal(g.Reps(id), w.wantReps) {
			return fmt.Errorf("event %d = %+v in %s, reps %v; want %+v", id, e, g.File(id), g.Reps(id), w)
		}
		if !slices.Equal(g.Succs(id), m.succ[id]) {
			return fmt.Errorf("succs(%d) = %v, want %v", id, g.Succs(id), m.succ[id])
		}
		if !slices.Equal(g.Preds(id), preds[id]) {
			return fmt.Errorf("preds(%d) = %v, want %v", id, g.Preds(id), preds[id])
		}
		for _, d := range m.succ[id] {
			if got, want := g.EdgeArgs(id, d), m.args(id, d); !slices.Equal(got, want) || (want == nil) != (got == nil) {
				return fmt.Errorf("EdgeArgs(%d, %d) = %v, want %v", id, d, got, want)
			}
		}
	}
	if enc, want := g.AppendBinary(nil), m.encode(); !bytes.Equal(enc, want) {
		return fmt.Errorf("AppendBinary = %x, the model encodes %x", enc, want)
	}
	return nil
}

// FuzzGraphBuilder drives random sequences of events, edges and labels
// through one Builder — self-loops, endpoints out of range, duplicate
// edges and labels, sources fanning out past dedupDegree, labels on edges
// added before, several graphs in a row — and holds every graph it builds
// to the map-based model: events, successor order, predecessors, labels
// and the binary encoding, which must decode and re-encode to itself.
func FuzzGraphBuilder(f *testing.F) {
	f.Add([]byte{0, 7, 0, 9, 1, 0, 1, 2, 1, 0, 3, 2, 1, 1, 1})
	f.Add([]byte{0, 200, 0, 3, 0, 77, 2, 1, 2, 4, 2, 1, 2, 4, 2, 2, 1, 0, 4, 0, 5, 1, 0, 0})
	// Thirty-two events, then event 0 fanning out to all of them three
	// times over, labels on every other edge: the edge set takes over from
	// the scan and must drop the repeats; then a second graph.
	fan := append([]byte{0, 31}, bytes.Repeat([]byte{0x29, 0xe3}, 16)...)
	f.Add(append(fan, 3, 1, 96, 0, 2, 1, 9, 4, 0, 3, 1, 2, 3, 4, 1, 1, 2))
	pool := []string{"a()", "m.a()", "b.c", "f(param x)", "g()", "h.i()", "a.b.c()", "x"}
	b := new(Builder)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		m := newRefGraph()
		// endpoint is an event ID, or one of the two just outside the range.
		endpoint := func() int { return next()%(len(m.events)+2) - 1 }
		check := func() {
			g := b.Build()
			if err := m.compare(g); err != nil {
				t.Fatal(err)
			}
			enc := g.AppendBinary(nil)
			dec, rest, err := DecodeBinary(enc)
			if err != nil || len(rest) != 0 {
				t.Fatalf("the encoding does not decode: %v, %d bytes left", err, len(rest))
			}
			if again := dec.AppendBinary(nil); !bytes.Equal(again, enc) {
				t.Fatal("the decoded graph re-encodes differently")
			}
			m = newRefGraph()
		}
		for len(data) > 0 {
			switch next() % 5 {
			case 0: // a run of events
				for n := 1 + next()%32; n > 0; n-- {
					v := next()
					reps := make([]string, v>>3%4)
					for j := range reps {
						reps[j] = pool[(v>>5+3*j)%len(pool)]
					}
					pos := pytoken.Pos{Line: len(m.events) + 1, Col: v % 7}
					file := []string{"a.py", "b.py"}[v>>2&1]
					kind := EventKind(v % 3)
					if got, want := b.AddEvent(kind, file, pos, reps), len(m.events); got != want {
						t.Fatalf("AddEvent returned %d, want %d", got, want)
					}
					m.addEvent(kind, file, pos, reps)
				}
			case 1:
				src, dst := endpoint(), endpoint()
				b.AddEdge(src, dst)
				m.addEdge(src, dst)
			case 2:
				src, dst, arg := endpoint(), endpoint(), next()%7-2
				b.AddEdgeArg(src, dst, arg)
				m.addEdgeArg(src, dst, arg)
			case 3: // one source fanning out, with repeats
				src, n, step := endpoint(), next(), 1+next()
				for j := 0; j < n && len(m.events) > 0; j++ {
					dst := j * step % len(m.events)
					if j%2 == 0 {
						b.AddEdge(src, dst)
						m.addEdge(src, dst)
					} else {
						b.AddEdgeArg(src, dst, j%5-2)
						m.addEdgeArg(src, dst, j%5-2)
					}
				}
			case 4: // build what there is; the next graph reuses the builder
				check()
			}
		}
		check()
	})
}
