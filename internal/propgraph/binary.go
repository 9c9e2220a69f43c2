package propgraph

import (
	"encoding/binary"
	"fmt"
	"slices"

	"seldon/internal/envelope"
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
	syms := g.Syms.Strings()
	dst = binary.AppendUvarint(dst, uint64(len(syms)))
	for _, s := range syms {
		dst = envelope.AppendBytesV(dst, s)
	}

	// File-name table, first-seen order over events.
	fileIdx := make(map[string]int)
	var files []string
	for _, e := range g.Events {
		if _, ok := fileIdx[e.File]; !ok {
			fileIdx[e.File] = len(files)
			files = append(files, e.File)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(files)))
	for _, f := range files {
		dst = envelope.AppendBytesV(dst, f)
	}

	dst = binary.AppendUvarint(dst, uint64(len(g.Events)))
	for _, e := range g.Events {
		dst = binary.AppendUvarint(dst, uint64(e.Kind))
		dst = binary.AppendUvarint(dst, uint64(fileIdx[e.File]))
		dst = binary.AppendVarint(dst, int64(e.Pos.Line))
		dst = binary.AppendVarint(dst, int64(e.Pos.Col))
		dst = binary.AppendUvarint(dst, uint64(len(e.RepIDs)))
		for _, r := range e.RepIDs {
			dst = binary.AppendUvarint(dst, uint64(r))
		}
		dst = append(dst, byte(e.Roles))
	}
	for src := range g.Events {
		ss := g.succs[src]
		dst = binary.AppendUvarint(dst, uint64(len(ss)))
		for _, d := range ss {
			dst = binary.AppendUvarint(dst, uint64(d))
		}
	}
	// Labels in ascending (source, destination) order. Rows are in successor
	// order, so the labeled edges of one source are sorted by destination.
	labeled := 0
	for range g.edgeArgs {
		labeled++
	}
	dst = binary.AppendUvarint(dst, uint64(labeled))
	var few [16]int64
	byDst := few[:0] // destination<<32 | position in the row
	for src := range g.argRow {
		row := g.labels(src)
		byDst = byDst[:0]
		for j, args := range row {
			if len(args) > 0 {
				byDst = append(byDst, int64(g.succs[src][j])<<32|int64(j))
			}
		}
		slices.Sort(byDst)
		for _, k := range byDst {
			args := row[uint32(k)]
			dst = binary.AppendUvarint(dst, uint64(src))
			dst = binary.AppendUvarint(dst, uint64(k>>32))
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

	// Symbol table. Interning in stored order reproduces the IDs the
	// encoder wrote; a duplicate would silently shift every later ID, so
	// it is rejected as corruption.
	numSyms := count()
	syms := newInterner(numSyms)
	for i := 0; i < numSyms && r.Err() == nil; i++ {
		s := r.StringV()
		if r.Err() == nil && int(syms.Intern(s)) != i {
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
	g := &Graph{
		Syms:   syms,
		Events: make([]*Event, 0, numEvents),
		succs:  make([][]int, numEvents),
		preds:  make([][]int, numEvents),
	}
	evArena := make([]Event, numEvents)
	for i := 0; i < numEvents && r.Err() == nil; i++ {
		kind := r.Uvarint()
		if r.Err() == nil && kind > uint64(KindParam) {
			fail("event %d: bad kind %d", i, kind)
		}
		fileIdx := r.Uvarint()
		file := ""
		if r.Err() == nil {
			switch {
			case fileIdx >= uint64(len(files)):
				fail("event %d: file index %d out of range", i, fileIdx)
			case fileIdx > uint64(usedFiles):
				fail("event %d: file %d used before file %d", i, fileIdx, usedFiles)
			default:
				file = files[fileIdx]
				usedFiles = max(usedFiles, int(fileIdx)+1)
			}
		}
		e := &evArena[i]
		*e = Event{
			ID:   i,
			Kind: EventKind(kind),
			File: file,
			Pos:  pytoken.Pos{Line: int(r.Varint()), Col: int(r.Varint())},
			syms: syms,
		}
		if nreps := count(); nreps > 0 {
			e.RepIDs = make([]Sym, nreps)
			for j := range e.RepIDs {
				s := r.Uvarint()
				if r.Err() == nil && s >= uint64(numSyms) {
					fail("event %d: symbol %d out of range", i, s)
				}
				e.RepIDs[j] = Sym(s)
			}
		}
		e.Roles = RoleSet(r.Byte())
		g.Events = append(g.Events, e)
	}

	if r.Err() == nil && usedFiles != len(files) {
		fail("%d file names no event uses", len(files)-usedFiles)
	}

	// Successors in stored (insertion) order; predecessors rebuilt in
	// ascending-source order, Union's normal form.
	for src := 0; src < numEvents && r.Err() == nil; src++ {
		if n := count(); n > 0 {
			ss := make([]int, n)
			for j := range ss {
				dst := r.Uvarint()
				if r.Err() == nil && (dst >= uint64(numEvents) || int(dst) == src) {
					fail("edge %d->%d out of range", src, dst)
				}
				ss[j] = int(dst)
			}
			g.succs[src] = ss
			for _, dst := range ss {
				if r.Err() == nil {
					g.preds[dst] = append(g.preds[dst], src)
				}
			}
		}
	}

	// Edge labels in the encoder's normal form — edges in ascending key
	// order, each an existing edge with a non-empty, strictly ascending
	// argument list — which is what Union's bulk label copy relies on.
	if nargs := r.Count(r.Uvarint(), 4); nargs > 0 {
		g.argRow = make([]int32, numEvents)
		g.argRows = make([][][]int, 0, min(nargs, numEvents))
		// Rows and argument lists are carved from chunks sized for the
		// labels still to come: one list and, nearly always, one argument
		// per labeled edge.
		var lists [][]int
		var ints []int
		prev := int64(-1)
		for i := 0; i < nargs && r.Err() == nil; i++ {
			src, dst := r.Uvarint(), r.Uvarint()
			if r.Err() == nil && (src >= uint64(numEvents) || dst >= uint64(numEvents)) {
				fail("edge-arg %d->%d out of range", src, dst)
			}
			n := count()
			if r.Err() != nil {
				break
			}
			key := edgeKey(int(src), int(dst))
			j := slices.Index(g.succs[src], int(dst))
			switch {
			case key <= prev:
				fail("edge-arg %d->%d out of order", src, dst)
			case j < 0:
				fail("edge-arg %d->%d labels no edge", src, dst)
			case n == 0:
				fail("edge-arg %d->%d has no arguments", src, dst)
			}
			prev = key
			if len(ints) < n {
				ints = make([]int, max(n, nargs-i))
			}
			args := ints[:n:n]
			ints = ints[n:]
			for j := range args {
				args[j] = int(r.Varint())
				if r.Err() == nil && j > 0 && args[j] <= args[j-1] {
					fail("edge-arg %d->%d: arguments not ascending", src, dst)
				}
			}
			if r.Err() == nil {
				if g.argRow[src] == 0 {
					deg := len(g.succs[src])
					if len(lists) < deg {
						lists = make([][]int, max(deg, nargs-i))
					}
					g.argRows = append(g.argRows, lists[:deg:deg])
					lists = lists[deg:]
					g.argRow[src] = int32(len(g.argRows))
				}
				g.argRows[g.argRow[src]-1][j] = args
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("propgraph: binary: %w", err)
	}
	return g, r.Rest(), nil
}

// decodeFanoutBytes is the total encoded size, some ninety corpus files, from
// which DecodeAll deals graphs to GOMAXPROCS goroutines (cf. unionFanoutEvents).
const decodeFanoutBytes = 64 << 10

// DecodeAll decodes encs, each one whole graph, and returns the graphs in
// order. Graphs decode independently: contiguous runs of about equal size
// are decoded on a goroutine each (cutRuns, eachRun). Of malformed
// encodings it reports the lowest, index and error, at any number of
// processors: a run stops at its first fault, the first run with one has it.
func DecodeAll(encs [][]byte) ([]*Graph, int, error) {
	graphs := make([]*Graph, len(encs))
	runs := cutRuns(nil, len(encs), func(i int) int { return len(encs[i]) }, decodeFanoutBytes)
	bad := make([]int, len(runs)-1) // per run: the index of its fault
	errs := make([]error, len(runs)-1)
	eachRun(runs, func(k int) {
		for i := runs[k]; i < runs[k+1]; i++ {
			g, rest, err := DecodeBinary(encs[i])
			if err == nil && len(rest) != 0 {
				err = fmt.Errorf("propgraph: binary: %d bytes after graph", len(rest))
			}
			if err != nil {
				bad[k], errs[k] = i, err
				return
			}
			graphs[i] = g
		}
	})
	if k := slices.IndexFunc(errs, func(err error) bool { return err != nil }); k >= 0 {
		return nil, bad[k], errs[k]
	}
	return graphs, 0, nil
}
