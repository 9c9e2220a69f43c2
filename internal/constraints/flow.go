package constraints

import (
	"seldon/internal/lp"
	"seldon/internal/par"
	"seldon/internal/propgraph"
)

// Pass 4, the flow constraints of Fig. 4. Its unit of work is a closed
// range of event IDs: one no edge leaves. Weak components never straddle
// the boundary of a closed range and are discovered in ascending event-ID
// order, so the flow pass over a graph is the concatenation of the flow
// passes over any tiling of it by closed ranges. The cold build tiles the
// graph itself (flowRanges); the incremental build is handed the tiling
// (one span per corpus file) and runs only the ranges whose cached block
// is stale. Either way flowBlocks deals the ranges one at a time to
// Options.Workers goroutines that each own a flowScratch, and assemble
// concatenates the resulting blocks in range order into one slice — the
// same bytes at every worker count, because no block depends on which
// goroutine built it.

// flowBlock is the pass-4 output for one closed range: the constraints
// (terms carry global variable IDs) and the per-pattern counts. For a
// corpus file's span it is what the FlowCache keeps, under the support
// fingerprint fp it is valid for, last checked against the span graph
// hash hash. A built block holds its constraints in cons; a block loaded
// from a file holds them as refs into the table of distinct constraints
// the file lists once, which the blocks loaded with it share.
type flowBlock struct {
	fp      [32]byte
	hash    [32]byte
	cons    []lp.Constraint
	refs    []int32
	table   *flowTable
	countA  int
	countB  int
	countC  int
	skipped int
}

// n returns the number of the block's constraints.
func (b *flowBlock) n() int { return len(b.cons) + len(b.refs) }

// at returns the block's ith constraint.
func (b *flowBlock) at(i int) lp.Constraint {
	if b.table != nil {
		return b.table.constraint(b.refs[i])
	}
	return b.cons[i]
}

// put writes the block's constraints to the front of dst and returns
// their number.
func (b *flowBlock) put(dst []lp.Constraint) int {
	if b.table == nil {
		return copy(dst, b.cons)
	}
	for i, k := range b.refs {
		dst[i] = b.table.constraint(k)
	}
	return len(b.refs)
}

// flowTable is the table of distinct constraints a loaded cache's blocks
// share: constraint k is terms[ends[2k]:ends[2k+1]] on the left and
// terms[ends[2k+1]:ends[2k+2]] on the right.
type flowTable struct {
	terms []lp.Term
	ends  []int32
}

// len returns the number of the table's constraints.
func (t *flowTable) len() int { return len(t.ends) / 2 }

// constraint returns the table's kth constraint.
func (t *flowTable) constraint(k int32) lp.Constraint {
	e := t.ends[2*k : 2*k+3]
	lhs, rhs := run{int(e[0]), int(e[1] - e[0])}, run{int(e[1]), int(e[2] - e[1])}
	return lp.Constraint{LHS: lhs.of(t.terms), RHS: rhs.of(t.terms)}
}

// flowPieceEvents is the least number of events in a range of the cold
// build's own tiling. A range costs three allocations (its block, the
// block's constraints and their terms) whatever its size, so ranges are
// kept well above a corpus file (≈19 events) while staying numerous
// enough to balance over any worker count.
const flowPieceEvents = 256

// closedCuts reports, for every position p in [0, len(Events)], whether
// no edge joins an event below p to one at or above it — whether a closed
// range may begin or end at p.
func closedCuts(g *propgraph.Graph) []bool {
	n := len(g.Events)
	cut := make([]bool, n+1)
	reach := -1 // the highest event ID adjacent to an event already seen
	for id := 0; id < n; id++ {
		cut[id] = reach < id
		for _, nb := range g.Succs(id) {
			reach = max(reach, nb)
		}
		for _, nb := range g.Preds(id) {
			reach = max(reach, nb)
		}
	}
	cut[n] = true
	return cut
}

// evRange is the range of event IDs [lo, hi).
type evRange struct{ lo, hi int }

// flowRanges tiles the graph with closed ranges of at least
// flowPieceEvents events (the last may be shorter, and a component larger
// than that is one range).
func flowRanges(cut []bool) []evRange {
	n := len(cut) - 1
	var out []evRange
	lo := 0
	for p := 1; p <= n; p++ {
		if cut[p] && (p-lo >= flowPieceEvents || p == n) {
			out = append(out, evRange{lo, p})
			lo = p
		}
	}
	return out
}

// flowBlocks runs the flow pass over each of the closed ranges and
// returns their blocks, aligned with ranges.
func (s *System) flowBlocks(g *propgraph.Graph, ranges []evRange, workers int) []*flowBlock {
	blocks := make([]*flowBlock, len(ranges))
	scratch := make([]flowScratch, par.Workers(workers, len(ranges)))
	par.For(len(scratch), len(ranges), func(w, i int) {
		blocks[i] = s.flowRange(g, ranges[i], &scratch[w])
	})
	return blocks
}

// assemble concatenates blocks into the problem's constraint slice and
// sums their counts. The incremental build hands it its cache (the cold
// build and a fallback, nil). Then the blocks, one per span, are also
// recorded as the problem's Blocks under their fingerprints: a fingerprint
// covers everything a block's constraints are made from — the file's
// graph, and the variable ID of every surviving (representation, role) of
// its events — so equal fingerprints mean equal runs of constraints, which
// is what a standing lp.RowTable goes by. And the constraint slice is
// written over the one the cache's previous build returned, when that has
// room: a leading run of blocks that are the same *flowBlock as last time
// already sits at its offset, so copying starts at the first block that
// differs.
func (s *System) assemble(blocks []*flowBlock, c *FlowCache) {
	total := 0
	for _, b := range blocks {
		total += b.n()
		s.CountA += b.countA
		s.CountB += b.countB
		s.CountC += b.countC
		s.SkippedComponents += b.skipped
	}
	var cons []lp.Constraint
	kept, at, spare := 0, 0, 0
	if c != nil {
		s.Problem.Blocks = make([]lp.Block, len(blocks))
		for i, b := range blocks {
			s.Problem.Blocks[i] = lp.Block{Key: b.fp, N: b.n()}
		}
		if cap(c.cons) >= total {
			cons = c.cons[:total]
			for ; kept < len(blocks) && kept < len(c.laid) && blocks[kept] == c.laid[kept]; kept++ {
				at += blocks[kept].n()
			}
		}
		// Room for the count to drift up by a few edits' worth of
		// constraints without a new slice.
		spare = total / 16
	}
	if total == 0 {
		return
	}
	if cons == nil {
		cons = make([]lp.Constraint, total, total+spare)
	}
	for _, b := range blocks[kept:] {
		at += b.put(cons[at:])
	}
	if c != nil {
		c.cons, c.laid = cons, append(c.laid[:0], blocks...)
	}
	s.Problem.Constraints = cons
}

// run is a run of terms within a flowScratch's term buffers.
type run struct{ off, n int }

func (r run) of(terms []lp.Term) []lp.Term {
	if r.n == 0 {
		return nil
	}
	return terms[r.off : r.off+r.n : r.off+r.n]
}

// conRef is a constraint under construction: both sides as runs of the
// scratch's term buffer. Constraints of one sanitizer share a right-hand
// side by sharing its run.
type conRef struct{ lhs, rhs run }

// flowScratch holds one worker's buffers, reused across ranges and
// components so that, once the largest of each has been seen, a range
// allocates only the block it returns.
type flowScratch struct {
	// Per range: component labels and index within the component, both
	// indexed by event ID minus the range's first; the events bucketed by
	// component; and the constraints generated so far with their terms.
	comp    []int32
	localOf []int32
	starts  []int
	byComp  []int
	stack   []int
	refs    []conRef
	terms   []lp.Term

	// Per component.
	indeg   []int
	order   []int
	fwd     []bitset
	words   []uint64 // backing arena for fwd
	roles   []propgraph.RoleSet
	evRuns  []run     // terms of (local event, role), into evTerms
	evTerms []lp.Term // §4.3 backoff averages, computed once per (event, role)
	srcsOf  [][]int   // local sanitizer index -> local source indices
	reach   []int
	sinks   []int
	sanMid  []int
}

// resized returns s with length n, reallocated with a sixteenth more room
// when its capacity is short, so that a size drifting up by a few edits'
// worth does not reallocate it each time, and never nil; the contents are
// unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n || s == nil {
		return make([]T, n, n+n/16)
	}
	return s[:n]
}

// flowRange generates the constraints of the closed range r: components
// in order of their lowest event, events inside a component in ID order.
func (s *System) flowRange(g *propgraph.Graph, r evRange, sc *flowScratch) *flowBlock {
	b := &flowBlock{}
	n := r.hi - r.lo
	if n < 2 {
		return b
	}
	ncomp := sc.components(g, r)
	// Bucket events by component with a counting sort.
	sc.starts = resized(sc.starts, ncomp+1)
	starts := sc.starts
	clear(starts)
	for _, c := range sc.comp {
		starts[c+1]++
	}
	for c := 0; c < ncomp; c++ {
		starts[c+1] += starts[c]
	}
	sc.byComp = resized(sc.byComp, n)
	sc.localOf = resized(sc.localOf, n)
	for i, c := range sc.comp {
		sc.byComp[starts[c]] = r.lo + i
		starts[c]++
	}
	// starts[c] is now the end of bucket c, i.e. the start of bucket c+1.
	sc.refs, sc.terms = sc.refs[:0], sc.terms[:0]
	from := 0
	for c := 0; c < ncomp; c++ {
		events := sc.byComp[from:starts[c]]
		from = starts[c]
		switch {
		case len(events) < 2:
		case len(events) > s.Opts.maxComponent:
			b.skipped++
		default:
			for k, id := range events {
				sc.localOf[id-r.lo] = int32(k)
			}
			s.buildComponent(g, events, r.lo, sc, b)
		}
	}
	// Seal: the block owns exactly the terms it uses, so dropping it from
	// a cache frees them whatever became of its neighbours.
	if len(sc.refs) > 0 {
		terms := append([]lp.Term(nil), sc.terms...)
		b.cons = make([]lp.Constraint, len(sc.refs))
		for i, ref := range sc.refs {
			b.cons[i] = lp.Constraint{LHS: ref.lhs.of(terms), RHS: ref.rhs.of(terms)}
		}
	}
	return b
}

// components labels each event of the closed range r with a
// weakly-connected-component ID in sc.comp (indexed by ID minus r.lo),
// numbering components in order of their lowest event, and returns their
// number.
func (sc *flowScratch) components(g *propgraph.Graph, r evRange) int {
	sc.comp = resized(sc.comp, r.hi-r.lo)
	comp := sc.comp
	for i := range comp {
		comp[i] = -1
	}
	next := int32(0)
	stack := sc.stack
	for start := r.lo; start < r.hi; start++ {
		if comp[start-r.lo] >= 0 {
			continue
		}
		comp[start-r.lo] = next
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, adj := range [2][]int{g.Succs(id), g.Preds(id)} {
				for _, nb := range adj {
					if comp[nb-r.lo] < 0 {
						comp[nb-r.lo] = next
						stack = append(stack, nb)
					}
				}
			}
		}
		next++
	}
	sc.stack = stack
	return int(next)
}

// prep resizes the scratch for a component of m events and returns the
// zeroed indeg slice and bitsets.
func (sc *flowScratch) prep(m int) ([]int, []bitset) {
	wpb := (m + 63) / 64
	sc.indeg = resized(sc.indeg, m)
	sc.order = resized(sc.order, m)
	sc.fwd = resized(sc.fwd, m)
	sc.words = resized(sc.words, m*wpb)
	clear(sc.indeg)
	clear(sc.words)
	for i := range sc.fwd {
		sc.fwd[i] = bitset(sc.words[i*wpb : (i+1)*wpb])
	}
	return sc.indeg, sc.fwd
}

// prepTerms records the candidate roles of the component's events and
// builds, once per (event, role), the backoff-averaged terms of the event
// playing the role: the average of its surviving representations'
// variables (§4.3).
func (sc *flowScratch) prepTerms(s *System, events []int) {
	nr := int(propgraph.NumRoles)
	sc.roles = resized(sc.roles, len(events))
	sc.evRuns = resized(sc.evRuns, len(events)*nr)
	sc.evTerms = sc.evTerms[:0]
	for i, id := range events {
		info := s.InfoFor(id)
		sc.roles[i] = 0
		if info != nil {
			sc.roles[i] = info.Roles
		}
		for _, role := range propgraph.Roles() {
			off := len(sc.evTerms)
			if sc.roles[i].Has(role) {
				coef := 1.0 / float64(len(info.RepIDs))
				for _, sym := range info.RepIDs {
					if v := s.VarIDSym(sym, role); v >= 0 {
						sc.evTerms = append(sc.evTerms, lp.Term{Var: v, Coef: coef})
					}
				}
			}
			sc.evRuns[i*nr+int(role)] = run{off, len(sc.evTerms) - off}
		}
	}
}

// termsOf returns the terms of local event i playing role.
func (sc *flowScratch) termsOf(i int, role propgraph.Role) []lp.Term {
	r := sc.evRuns[i*int(propgraph.NumRoles)+int(role)]
	return sc.evTerms[r.off : r.off+r.n]
}

// sum appends the terms of every listed event playing role and returns
// them as one run.
func (sc *flowScratch) sum(events []int, role propgraph.Role) run {
	off := len(sc.terms)
	for _, i := range events {
		sc.terms = append(sc.terms, sc.termsOf(i, role)...)
	}
	return run{off, len(sc.terms) - off}
}

// emit records the constraint a + b <= rhs + C and counts it in *kind.
func (sc *flowScratch) emit(a, b []lp.Term, rhs run, kind *int) {
	if len(a)+len(b) == 0 {
		return
	}
	off := len(sc.terms)
	sc.terms = append(append(sc.terms, a...), b...)
	sc.refs = append(sc.refs, conRef{lhs: run{off, len(a) + len(b)}, rhs: rhs})
	*kind++
}

// playing appends to dst the members of set that are candidates for role.
func (sc *flowScratch) playing(dst []int, set []int, role propgraph.Role) []int {
	for _, j := range set {
		if sc.roles[j].Has(role) {
			dst = append(dst, j)
		}
	}
	return dst
}

// buildComponent generates constraints inside one component, enumerating
// the Fig. 4 patterns over forward reachability. Neighbor IDs translate
// through sc.localOf: successors and predecessors of a component member
// are, by definition of weak connectivity, members themselves.
func (s *System) buildComponent(g *propgraph.Graph, events []int, lo int, sc *flowScratch, b *flowBlock) {
	m := len(events)
	indeg, fwd := sc.prep(m)
	localOf := sc.localOf
	// Topological order. Analyzer-built graphs are DAGs; hand-built
	// graphs may contain cycles, in which case the sort is incomplete and
	// reachability falls back to a fixpoint iteration below.
	for _, id := range events {
		for _, dst := range g.Succs(id) {
			indeg[localOf[dst-lo]]++
		}
	}
	// order doubles as the queue: events are dequeued in the order they
	// were appended.
	order := sc.order[:0]
	for i, d := range indeg {
		if d == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, dst := range g.Succs(events[order[head]]) {
			j := localOf[dst-lo]
			indeg[j]--
			if indeg[j] == 0 {
				order = append(order, int(j))
			}
		}
	}

	// Forward reachability bitsets: one reverse-topological pass for DAGs,
	// fixpoint iteration when the component is cyclic (the paper notes the
	// method supports cycles in principle, §5.2).
	if len(order) == m {
		for k := len(order) - 1; k >= 0; k-- {
			i := order[k]
			for _, dst := range g.Succs(events[i]) {
				j := localOf[dst-lo]
				fwd[i].set(int(j))
				fwd[i].or(fwd[j])
			}
		}
	} else {
		for changed := true; changed; {
			changed = false
			for i := 0; i < m; i++ {
				for _, dst := range g.Succs(events[i]) {
					j := localOf[dst-lo]
					if fwd[i].setChanged(int(j)) {
						changed = true
					}
					if fwd[i].orChanged(fwd[j]) {
						changed = true
					}
				}
			}
		}
	}

	sc.prepTerms(s, events)
	roles := sc.roles

	// Sources flowing into each sanitizer candidate, ascending.
	for len(sc.srcsOf) < m {
		sc.srcsOf = append(sc.srcsOf, nil)
	}
	srcsOf := sc.srcsOf[:m]
	for j := range srcsOf {
		srcsOf[j] = srcsOf[j][:0]
	}
	for i := 0; i < m; i++ {
		if !roles[i].Has(propgraph.Source) {
			continue
		}
		sc.reach = fwd[i].appendTo(sc.reach[:0])
		for _, j := range sc.reach {
			if roles[j].Has(propgraph.Sanitizer) {
				srcsOf[j] = append(srcsOf[j], i)
			}
		}
	}

	for i := 0; i < m; i++ {
		if !roles[i].Has(propgraph.Sanitizer) && !roles[i].Has(propgraph.Source) {
			continue
		}
		sc.reach = fwd[i].appendTo(sc.reach[:0])
		sc.sinks = sc.playing(sc.sinks[:0], sc.reach, propgraph.Sink)
		if roles[i].Has(propgraph.Sanitizer) {
			san := sc.termsOf(i, propgraph.Sanitizer)
			srcs := srcsOf[i]

			// Fig. 4a: san(i) + snk(t) <= Σ src(u) + C, per sink t
			// reachable from this sanitizer.
			srcSum := sc.sum(srcs, propgraph.Source)
			for _, t := range sc.sinks {
				sc.emit(san, sc.termsOf(t, propgraph.Sink), srcSum, &b.countA)
			}

			// Fig. 4b: src(u) + san(i) <= Σ snk(t) + C, per source u.
			snkSum := sc.sum(sc.sinks, propgraph.Sink)
			for _, u := range srcs {
				sc.emit(sc.termsOf(u, propgraph.Source), san, snkSum, &b.countB)
			}
		}

		// Fig. 4c: src(i) + snk(t) <= Σ san(s on some i→t path) + C.
		if roles[i].Has(propgraph.Source) {
			src := sc.termsOf(i, propgraph.Source)
			sc.sanMid = sc.playing(sc.sanMid[:0], sc.reach, propgraph.Sanitizer)
			for _, t := range sc.sinks {
				off := len(sc.terms)
				for _, mid := range sc.sanMid {
					if fwd[mid].has(t) {
						sc.terms = append(sc.terms, sc.termsOf(mid, propgraph.Sanitizer)...)
					}
				}
				sc.emit(src, sc.termsOf(t, propgraph.Sink), run{off, len(sc.terms) - off}, &b.countC)
			}
		}
	}
}
