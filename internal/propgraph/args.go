package propgraph

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

// EdgeArgs returns the argument positions labeling the edge src→dst, or
// nil when the edge is unlabeled (meaning: position unknown, matches any).
func (g *Graph) EdgeArgs(src, dst int) []int {
	if src < 0 {
		return nil
	}
	s := g.Events[src].succ
	for k := s.lo; k < s.hi; k++ {
		if g.succ[k] == dst {
			return g.labels(int(k))
		}
	}
	return nil
}

// labels returns the labels of the edge to succ[k], nil when it has none.
func (g *Graph) labels(k int) []int {
	l := g.lab[k]
	if l.lo == l.hi {
		return nil
	}
	return g.args[l.lo:l.hi:l.hi]
}

// edgeArgs yields every labeled edge, packed as the codec's key, with its
// labels: sources ascending, the edges of one source in successor order.
func (g *Graph) edgeArgs(yield func(key int64, args []int) bool) {
	for src := range g.Events {
		s := g.Events[src].succ
		for k := int(s.lo); k < int(s.hi); k++ {
			if args := g.labels(k); args != nil && !yield(edgeKey(src, g.succ[k]), args) {
				return
			}
		}
	}
}
