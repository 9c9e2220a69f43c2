package propgraph

import "sort"

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

// edgeKey packs an edge for the label map.
func edgeKey(src, dst int) int64 { return int64(src)<<32 | int64(uint32(dst)) }

// AddEdgeArg records information flow from src to dst entering through
// argument position arg (0-based; ArgReceiver/ArgKeyword for non-positional
// flow). The edge itself is created as by AddEdge.
func (g *Graph) AddEdgeArg(src, dst, arg int) {
	if src == dst || src < 0 || dst < 0 || src >= len(g.Events) || dst >= len(g.Events) {
		return
	}
	g.AddEdge(src, dst)
	if g.edgeArgs == nil {
		g.edgeArgs = make(map[int64][]int)
	}
	key := edgeKey(src, dst)
	for _, a := range g.edgeArgs[key] {
		if a == arg {
			return
		}
	}
	args := g.push(g.edgeArgs[key], arg)
	sort.Ints(args)
	g.edgeArgs[key] = args
}

// EdgeArgs returns the argument positions labeling the edge src→dst, or
// nil when the edge is unlabeled (meaning: position unknown, matches any).
func (g *Graph) EdgeArgs(src, dst int) []int {
	if g.edgeArgs == nil {
		return nil
	}
	return g.edgeArgs[edgeKey(src, dst)]
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
