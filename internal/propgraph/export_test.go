package propgraph

// SubscriptSegment renders an indexing step for inclusion in a path
// segment: literal string and number keys are kept verbatim (the paper's
// request.files['f']), everything else degrades to "[]" (the paper's
// _hash()[]). The analyzer builds its segments itself; only the tests
// call this.
func SubscriptSegment(base, key string, literal bool) string {
	if literal {
		return base + "[" + key + "]"
	}
	return base + "[]"
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

// Intern returns the symbol for s, assigning the next dense ID on first
// sight.
func (t *Interner) Intern(s string) Sym {
	t.mu.RLock()
	id, ok := t.index[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.internLocked(s)
}
