package propgraph

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"seldon/internal/envelope"
	"seldon/internal/par"
	"seldon/internal/pytoken"
)

// The binary codec is the persistence format of the incremental
// front-end (internal/fpcache): a compact, self-delimiting encoding of a
// propagation graph whose bytes are a pure function of the graph — no
// map is iterated unordered, so identical graphs always encode to
// identical bytes and can be content-addressed. It captures everything
// AnalyzeModule produces: events (kind, file, position, representations,
// candidate roles), the successor adjacency in insertion order, and the
// argument-position edge labels in packed-key order.
//
// Version 2 writes strings once: the graph's symbol table and a
// first-seen table of file names lead the encoding, and each event then
// references representations and its file by integer index. A corpus
// file's graph repeats its own name in every event and shares
// representation strings across events, so entries shrink and decoding
// rebuilds each string exactly once. Version-1 entries fail to decode,
// which the cache treats as a miss (re-analyze + overwrite), never an
// error.
//
// Predecessor lists are not stored: they are rebuilt in ascending-source
// order on decode, the same normal form propgraph.Union re-establishes
// for every downstream consumer, so a decoded graph is indistinguishable
// from a fresh one after the union every pipeline takes.

const (
	binaryTag     = 0x47 // 'G', leading byte of a graph section
	binaryVersion = 2
)

// AppendBinary appends the graph's binary encoding to dst and returns
// the extended slice. The encoding is deterministic and self-delimiting
// (DecodeBinary knows where it ends).
func (g *Graph) AppendBinary(dst []byte) []byte {
	dst = append(dst, binaryTag, binaryVersion)

	// Symbol table, in table order (RepIDs index it directly).
	syms := g.Syms.view()
	dst = binary.AppendUvarint(dst, uint64(syms.len()))
	for i := range syms.len() {
		dst = envelope.AppendBytesV(dst, syms.at(i))
	}

	// File-name table, distinct names in first-use order over events. A
	// built or decoded graph's own table is that already; a union's
	// repeats a name for every input it came from.
	fileIdx := make([]int32, len(g.files)) // table index → encoded index + 1
	var byName map[string]int32
	if len(g.files) > 1 {
		byName = make(map[string]int32, len(g.files))
	}
	var files []string
	for _, e := range g.Events {
		if fileIdx[e.file] != 0 {
			continue
		}
		f := g.files[e.file]
		j, ok := byName[f]
		if !ok {
			j = int32(len(files))
			files = append(files, f)
			if byName != nil {
				byName[f] = j
			}
		}
		fileIdx[e.file] = j + 1
	}
	dst = binary.AppendUvarint(dst, uint64(len(files)))
	for _, f := range files {
		dst = envelope.AppendBytesV(dst, f)
	}

	dst = binary.AppendUvarint(dst, uint64(len(g.Events)))
	for id, e := range g.Events {
		dst = binary.AppendUvarint(dst, uint64(e.Kind))
		dst = binary.AppendUvarint(dst, uint64(fileIdx[e.file]-1))
		dst = binary.AppendVarint(dst, int64(e.Pos.Line))
		dst = binary.AppendVarint(dst, int64(e.Pos.Col))
		reps := g.RepIDs(id)
		dst = binary.AppendUvarint(dst, uint64(len(reps)))
		for _, r := range reps {
			dst = binary.AppendUvarint(dst, uint64(r))
		}
		dst = append(dst, byte(e.Roles))
	}
	labeled := 0
	for src := range g.Events {
		ss := g.Succs(src)
		dst = binary.AppendUvarint(dst, uint64(len(ss)))
		for _, d := range ss {
			dst = binary.AppendUvarint(dst, uint64(d))
		}
		for k := g.Events[src].succ.lo; k < g.Events[src].succ.hi; k++ {
			if g.lab[k].lo != g.lab[k].hi {
				labeled++
			}
		}
	}
	// Labels in ascending (source, destination) order. Successors are in
	// insertion order, so the labeled edges of one source are sorted by
	// destination first.
	dst = binary.AppendUvarint(dst, uint64(labeled))
	var few [16]int64
	byDst := few[:0] // destination<<32 | successor position
	for src := range g.Events {
		s := g.Events[src].succ
		byDst = byDst[:0]
		for k := s.lo; k < s.hi; k++ {
			if g.lab[k].lo != g.lab[k].hi {
				byDst = append(byDst, int64(g.succ[k])<<32|int64(k))
			}
		}
		slices.Sort(byDst)
		for _, key := range byDst {
			args := g.labels(int(uint32(key)))
			dst = binary.AppendUvarint(dst, uint64(src))
			dst = binary.AppendUvarint(dst, uint64(key>>32))
			dst = binary.AppendUvarint(dst, uint64(len(args)))
			for _, a := range args {
				dst = binary.AppendVarint(dst, int64(a))
			}
		}
	}
	return dst
}

// DecodeBinary decodes a graph encoded by AppendBinary from the front of
// data, returning the graph and the unconsumed remainder. Malformed
// input — truncation, version mismatch, out-of-range edges or symbols —
// yields an error, never a partial graph, and so does input out of the
// encoder's normal form (a file table not in first-use order, edge labels
// out of order, a padded varint): what decodes encodes back to the bytes
// consumed (FuzzDecodeBinary).
//
// Every table of the graph is allocated once at its final size: where the
// encoding gives no count (the bytes of the symbol table, representation
// slots, edges, label arguments), a first pass over the section counts
// them before a second one fills the table.
func DecodeBinary(data []byte) (*Graph, []byte, error) {
	r := envelope.NewReader(data)
	fail := func(format string, args ...any) {
		r.Fail(fmt.Errorf(format, args...))
	}
	// Every element of every list is at least one byte (an event seven, a
	// label four), so a count larger than what is left cannot be real.
	count := func() int { return r.Count(r.Uvarint(), 1) }
	if tag := r.Byte(); r.Err() == nil && tag != binaryTag {
		fail("bad tag 0x%02x", tag)
	}
	if v := r.Byte(); r.Err() == nil && v != binaryVersion {
		fail("unsupported version %d", v)
	}

	// Symbol table: the strings back to back. A duplicate would silently
	// shift every later ID, so it is rejected as corruption.
	numSyms := count()
	total := 0
	for s, i := skim(r.Rest()), 0; i < numSyms && len(s) > 0; i++ {
		n := s.uvarint()
		total += min(n, len(s))
		s = s[min(n, len(s)):]
	}
	var blob strings.Builder
	blob.Grow(total)
	ends := make([]uint32, numSyms)
	for i := 0; i < numSyms && r.Err() == nil; i++ {
		blob.Write(r.BytesV())
		ends[i] = uint32(blob.Len())
	}
	g := newSealedGraph(blob.String(), ends)
	if r.Err() == nil {
		if s, dup := g.Syms.duplicate(); dup {
			fail("duplicate symbol %q in table", s)
		}
	}

	// File-name table: distinct names, in the order the events first use
	// them (usedFiles counts the ones an event has used so far).
	var files []string
	if numFiles := count(); numFiles > 0 {
		files = make([]string, 0, numFiles)
		var seen map[string]bool // a file's own graph names one file
		if numFiles > 1 {
			seen = make(map[string]bool, numFiles)
		}
		for i := 0; i < numFiles && r.Err() == nil; i++ {
			f := r.StringV()
			if seen[f] {
				fail("duplicate file name %q in table", f)
			} else if seen != nil {
				seen[f] = true
			}
			files = append(files, f)
		}
	}
	usedFiles := 0

	numEvents := r.Count(r.Uvarint(), 7)
	total = 0
	for s, i := skim(r.Rest()), 0; i < numEvents && len(s) > 0; i++ {
		s.skip(4) // kind, file, line, column
		total += s.skip(s.uvarint())
		s.skipBytes(1) // roles
	}
	g.Events, g.files, g.reps = make([]Event, numEvents), files, make([]Sym, total)
	nreps := 0
	for i := 0; i < numEvents && r.Err() == nil; i++ {
		e := &g.Events[i]
		kind := r.Uvarint()
		if r.Err() == nil && kind > uint64(KindParam) {
			fail("event %d: bad kind %d", i, kind)
		}
		e.Kind = EventKind(kind)
		fileIdx := r.Uvarint()
		if r.Err() == nil {
			switch {
			case fileIdx >= uint64(len(files)):
				fail("event %d: file index %d out of range", i, fileIdx)
			case fileIdx > uint64(usedFiles):
				fail("event %d: file %d used before file %d", i, fileIdx, usedFiles)
			default:
				e.file = int32(fileIdx)
				usedFiles = max(usedFiles, int(fileIdx)+1)
			}
		}
		e.Pos = pytoken.Pos{Line: int(r.Varint()), Col: int(r.Varint())}
		n := count()
		if nreps+n > len(g.reps) {
			fail("event %d: truncated", i) // the first pass ran out here
		}
		if r.Err() != nil {
			break
		}
		e.reps = span{uint32(nreps), uint32(nreps + n)}
		for j := nreps; j < nreps+n; j++ {
			s := r.Uvarint()
			if r.Err() == nil && s >= uint64(numSyms) {
				fail("event %d: symbol %d out of range", i, s)
			}
			g.reps[j] = Sym(s)
		}
		nreps += n
		e.Roles = RoleSet(r.Byte())
	}

	if r.Err() == nil && usedFiles != len(files) {
		fail("%d file names no event uses", len(files)-usedFiles)
	}

	// Successors in stored (insertion) order; predecessors rebuilt in
	// ascending-source order, Union's normal form.
	total = 0
	for s, i := skim(r.Rest()), 0; i < numEvents && len(s) > 0; i++ {
		total += s.skip(s.uvarint())
	}
	adj := make([]int, 2*total) // successors, then predecessors
	g.succ, g.pred = adj[:total:total], adj[total:]
	nsucc := 0
	for src := 0; src < numEvents && r.Err() == nil; src++ {
		n := count()
		if nsucc+n > len(g.succ) {
			fail("successors of %d: truncated", src)
		}
		if r.Err() != nil {
			break
		}
		e := &g.Events[src]
		e.succ = span{uint32(nsucc), uint32(nsucc + n)}
		for j := nsucc; j < nsucc+n; j++ {
			dst := r.Uvarint()
			if r.Err() == nil && (dst >= uint64(numEvents) || int(dst) == src) {
				fail("edge %d->%d out of range", src, dst)
				break
			}
			g.succ[j] = int(dst)
			g.Events[dst].pred.hi++
		}
		nsucc += n
	}
	if r.Err() == nil {
		g.fillPreds()
	}

	// Edge labels in the encoder's normal form — edges in ascending key
	// order, each an existing edge with a non-empty, strictly ascending
	// argument list — which is what Union's bulk label copy relies on.
	nargs := r.Count(r.Uvarint(), 4)
	total = 0
	for s, i := skim(r.Rest()), 0; i < nargs && len(s) > 0; i++ {
		s.skip(2) // source, destination
		total += s.skip(s.uvarint())
	}
	g.lab = make([]span, len(g.succ))
	g.args = make([]int, total)
	nlab := 0
	prev := int64(-1)
	for i := 0; i < nargs && r.Err() == nil; i++ {
		src, dst := r.Uvarint(), r.Uvarint()
		if r.Err() == nil && (src >= uint64(numEvents) || dst >= uint64(numEvents)) {
			fail("edge-arg %d->%d out of range", src, dst)
		}
		n := count()
		if nlab+n > len(g.args) {
			fail("edge-arg %d->%d: truncated", src, dst)
		}
		if r.Err() != nil {
			break
		}
		key := edgeKey(int(src), int(dst))
		k := slices.Index(g.Succs(int(src)), int(dst))
		switch {
		case key <= prev:
			fail("edge-arg %d->%d out of order", src, dst)
		case k < 0:
			fail("edge-arg %d->%d labels no edge", src, dst)
		case n == 0:
			fail("edge-arg %d->%d has no arguments", src, dst)
		}
		prev = key
		args := g.args[nlab : nlab+n]
		for j := range args {
			args[j] = int(r.Varint())
			if r.Err() == nil && j > 0 && args[j] <= args[j-1] {
				fail("edge-arg %d->%d: arguments not ascending", src, dst)
			}
		}
		if r.Err() == nil {
			g.lab[int(g.Events[src].succ.lo)+k] = span{uint32(nlab), uint32(nlab + n)}
		}
		nlab += n
	}
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("propgraph: binary: %w", err)
	}
	if len(g.succ) == 0 {
		g.succ, g.pred, g.lab = nil, nil, nil
	}
	if len(g.args) == 0 {
		g.args = nil
	}
	return g, r.Rest(), nil
}

// skim reads ahead of DecodeBinary's cursor for the sizes the encoding
// does not state. It checks nothing — the cursor that follows does — and
// it stops, empty, where the bytes run out, so a size it counts is never
// more than the bytes it read.
type skim []byte

// uvarint reads one unsigned varint.
func (s *skim) uvarint() int {
	v, n := binary.Uvarint(*s)
	if n <= 0 {
		*s = nil
		return 0
	}
	*s = (*s)[n:]
	return int(min(v, uint64(len(*s))))
}

// skip moves past n varints and returns how many there were.
func (s *skim) skip(n int) int {
	b := *s
	k := 0
	for ; k < n && len(b) > 0; k++ {
		i := 0
		for i < len(b)-1 && b[i] >= 0x80 {
			i++
		}
		b = b[i+1:]
	}
	*s = b
	return k
}

// skipBytes moves past n bytes.
func (s *skim) skipBytes(n int) { *s = (*s)[min(n, len(*s)):] }

// decodeFanoutBytes is the total encoded size, some ninety corpus files, from
// which DecodeAll deals graphs to GOMAXPROCS goroutines (cf. unionFanoutEvents).
const decodeFanoutBytes = 64 << 10

// DecodeAll decodes encs, each one whole graph, and returns the graphs in
// order. Graphs decode independently, one item each, on GOMAXPROCS
// goroutines from decodeFanoutBytes of encodings up. Of malformed
// encodings it reports the lowest, index and error, at any number of
// processors: every encoding is decoded, and the faults are read in order
// after the join.
func DecodeAll(encs [][]byte) ([]*Graph, int, error) {
	graphs := make([]*Graph, len(encs))
	errs := make([]error, len(encs))
	total := 0
	for _, enc := range encs {
		total += len(enc)
	}
	workers := 1
	if total >= decodeFanoutBytes {
		workers = 0
	}
	par.For(workers, len(encs), func(_, i int) {
		g, rest, err := DecodeBinary(encs[i])
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("propgraph: binary: %d bytes after graph", len(rest))
		}
		graphs[i], errs[i] = g, err
	})
	if i := slices.IndexFunc(errs, func(err error) bool { return err != nil }); i >= 0 {
		return nil, i, errs[i]
	}
	return graphs, 0, nil
}
