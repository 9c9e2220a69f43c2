package propgraph

import (
	"slices"
	"sort"
)

// Argument-position labels on flow edges. The paper (§3.3) notes that "a
// function may act as a source or a sink depending on its arguments" and
// leaves the differentiation to future work; these labels implement it.
// An edge may carry several labels (the same value passed twice); an edge
// with no label means the position is unknown and matches any restriction.
const (
	// ArgReceiver marks flow through a method receiver (obj.m(...)).
	ArgReceiver = -1
	// ArgKeyword marks flow through a keyword argument whose positional
	// index is unknown to the analyzer.
	ArgKeyword = -2
)

// edgeKey packs an edge into the key the binary codec orders labels by.
func edgeKey(src, dst int) int64 { return int64(src)<<32 | int64(uint32(dst)) }

// AddEdgeArg records information flow from src to dst entering through
// argument position arg (0-based; ArgReceiver/ArgKeyword for non-positional
// flow). The edge itself is created as by AddEdge.
func (g *Graph) AddEdgeArg(src, dst, arg int) {
	if src == dst || src < 0 || dst < 0 || src >= len(g.Events) || dst >= len(g.Events) {
		return
	}
	g.AddEdge(src, dst)
	ss := g.succs[src]
	j := slices.Index(ss, dst)
	if src >= len(g.argRow) {
		// The table grows with Events, whose capacity doubles.
		if cap(g.argRow) < len(g.Events) {
			g.argRow = append(make([]int32, 0, cap(g.Events)), g.argRow...)
		}
		g.argRow = g.argRow[:len(g.Events)]
	}
	if g.argRow[src] == 0 {
		if g.argRows == nil {
			g.argRows = make([][][]int, 0, typicalFile/4) // about the labeled sources of a corpus file
		}
		g.argRows = append(g.argRows, nil)
		g.argRow[src] = int32(len(g.argRows))
	}
	row := g.argRows[g.argRow[src]-1]
	if j >= len(row) {
		if j >= cap(row) {
			// A row is carved with its successor list's capacity, so it moves
			// as often as that list does.
			n := cap(ss)
			if len(g.listChunk) < n {
				g.listChunk = make([][]int, chunkLen(2*len(g.Events), n))
			}
			grown := g.listChunk[:len(row):n]
			g.listChunk = g.listChunk[n:]
			copy(grown, row)
			row = grown
		}
		row = row[:j+1]
		g.argRows[g.argRow[src]-1] = row
	}
	if slices.Contains(row[j], arg) {
		return
	}
	args := g.push(row[j], arg)
	sort.Ints(args)
	row[j] = args
}

// labels returns the label row of src, parallel to its successor list and
// no longer than it, or nil when none of its edges is labeled.
func (g *Graph) labels(src int) [][]int {
	if src >= len(g.argRow) || g.argRow[src] == 0 {
		return nil
	}
	return g.argRows[g.argRow[src]-1]
}

// EdgeArgs returns the argument positions labeling the edge src→dst, or
// nil when the edge is unlabeled (meaning: position unknown, matches any).
func (g *Graph) EdgeArgs(src, dst int) []int {
	if src < 0 {
		return nil
	}
	row := g.labels(src)
	for j, d := range g.succs[src][:len(row)] {
		if d == dst {
			return row[j]
		}
	}
	return nil
}

// edgeArgs yields every labeled edge, packed as the codec's key, with its
// labels: sources ascending, the edges of one source in successor order.
func (g *Graph) edgeArgs(yield func(key int64, args []int) bool) {
	for src := range g.argRow {
		for j, args := range g.labels(src) {
			if len(args) > 0 && !yield(edgeKey(src, g.succs[src][j]), args) {
				return
			}
		}
	}
}

// copyEdgeArgsMapped transfers labels through a vertex-contraction map,
// used by Collapse.
func (out *Graph) copyEdgeArgsMapped(g *Graph, classOf []int) {
	for key, args := range g.edgeArgs {
		src := classOf[int(key>>32)]
		dst := classOf[int(uint32(key))]
		for _, a := range args {
			out.AddEdgeArg(src, dst, a)
		}
	}
}
