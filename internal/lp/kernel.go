package lp

import (
	"math"
	"slices"
)

// This file holds the compiled solver kernel. compile folds a Problem's
// constraints into a prefix trie of their flattened term lists — big code
// repeats the same API triples, so a learned system carries each row
// several times over, and distinct rows often start with the same terms —
// and precomputes the free-variable mask and pinned-L1 constant; the
// per-epoch work is then one multiply-add per trie node, one branch-free
// sweep over the live rows that compacts the violated ones, and a hinge
// fold and gradient scatter over that compacted list only, each row
// weighted by the number of constraints that fell on it. One pass yields
// the violations needed for the gradient, the objective of the previous
// epoch's iterate, and the convergence statistics.
//
// The objective the kernel evaluates is the folded one,
//
//	Σ_g n_g · max(L_g − R_g − C, 0) + λ Σ_free x_v
//
// over the distinct constraints g in order of first occurrence, n_g the
// number of copies: the same real number as the sum over every constraint,
// rounded once per distinct row instead of once per copy.
//
// Determinism contract: the result is a pure function of the Problem — of
// its multiset of constraints and the order in which the distinct ones
// first occur — bit-for-bit equal through a standing RowTable or a fresh
// one, and bit-for-bit what the interpreted solver of the folded problem
// (the minimizeReference oracle in reference_test.go) computes, objective
// included. A row's violation is the left-to-right sum −C + c₀x₀ + c₁x₁ +
// …, and a trie node holds exactly that sum over the terms on its path, so
// sharing a prefix shares bit-identical partial sums and a node's value
// does not depend on its number. Every floating-point reduction (hinge
// fold, L1 fold, gradient scatter, Adam update) runs sequentially, the
// compacted list holds the violated rows in first-occurrence order, the
// scatter adds a row's terms in term order, and every product that meets
// a sum is converted — float64(n·value) — so that no architecture fuses
// it into the add (`make fmacheck` holds that). The only terms the
// scatter skips are those on pinned variables, whose gradient entries
// nobody reads. Moving a copy of a constraint that is not its first
// therefore changes nothing; moving a first occurrence reorders the sums
// and may move the result in its last bits.

// node is one trie node: the prefix of node par followed by the term
// coef·x[v]. Node 0 is the root, the empty prefix, and every other node's
// parent has a lower number.
type node struct {
	par, v int32
	coef   float64
}

// kernel is the compiled form of a Problem.
type kernel struct {
	c      float64
	lambda float64

	// The table's trie. rowOf maps each constraint to its row, the node
	// where its flattened term list — LHS, then RHS with negated
	// coefficients — ends; order lists the rows constraints map to (the
	// live ones; a standing table may hold more, see RowTable) by first
	// occurrence in rowOf, and mult[r] counts the constraints on live row r.
	nodes []node
	rowOf []int32
	order []int32
	mult  []int32
	// reused counts the constraints that took their row from a remembered
	// block, dead the nodes no live row runs through.
	reused, dead int

	// The terms of row order[j] on free variables, in term order:
	// freeVar/freeCoef[freeStart[j]:freeStart[j+1]], what the gradient
	// scatter walks.
	freeStart []int32
	freeVar   []int32
	freeCoef  []float64

	masks *problemMask // free mask, pinned indices, pinned-L1 constant

	// Per-pass state. partial[i] is −C plus the terms on node i's path, so
	// L_r − R_r − C at row r; active[:nActive] lists the indices into order
	// of the violated rows, and violated is how many constraints sit on
	// them. The hinge fold and the scatter read these instead of re-walking
	// rows.
	partial  []float64
	active   []int32
	nActive  int
	violated int
}

// RowTable is what compile builds: the trie of the problems it has
// compiled, its child table, and the kernel's arrays. Minimize makes one
// per solve unless it is handed a standing one (Options.Rows), which then
// carries over to the next solve whatever the next problem shares with
// this one:
//
//   - A block of constraints the problem says it took whole from a keyed
//     source (Problem.Blocks) is inserted once. The rows its constraints
//     fell on are remembered under the key, and a later problem showing
//     the key gets them back as one copy, with no probe of the trie.
//   - Nodes stay. A node no row of the current problem runs through is
//     dead: every pass still evaluates it, nothing reads it. Once the dead
//     nodes pass 1/deadRowShare of the trie, or the problem has fewer
//     variables than some node may mention, compile empties the table and
//     compiles the problem as the first.
//   - The kernel's arrays are reused, so a compile allocates only what a
//     larger problem makes them grow by.
//
// Node numbers therefore depend on what the table has seen; nothing else
// does. Every floating-point fold runs over order, the live rows by first
// occurrence in the problem at hand (see the determinism contract above),
// and a node's value does not depend on its number, so a solve through a
// standing table is bit-identical to one through a fresh table, whatever
// either holds.
//
// A RowTable is not safe for concurrent use, and a Result computed
// through it does not refer to it.
type RowTable struct {
	nodes []node
	// slots is the open-addressed child table over nodes: a node's slot
	// is found from (parent, variable, coefficient bits), 0 marks an empty
	// one (the root is nobody's child), and it is doubled whenever it gets
	// half full.
	slots []int32
	// numVars is the largest NumVars of the problems whose rows the table
	// holds: no node mentions a variable from there on.
	numVars int

	// runs remembers, per block key, the rows of the block's constraints;
	// gen numbers the compiles, and a run, a row (seen) or a node (alive)
	// last stamped with it is part of the current problem.
	runs  map[[32]byte]*rowRun
	gen   uint32
	seen  []uint32
	alive []uint32

	// k is the kernel of the last compile; its arrays are what the next
	// one reuses.
	k kernel
}

type rowRun struct {
	rows []int32
	gen  uint32
}

// deadRowShare bounds the dead nodes of a standing table at
// 1/deadRowShare of all its nodes. A dead node costs its multiply-add in
// every epoch; emptying the table costs one cold compile (≈ 25 ms at 6000
// files, against ≈ 4 ms for a compile that remembers its blocks).
// Measured over 200 re-learns of a 6000-file session (six files flipped
// each time), three rounds each: 1/4 empties the table 17 times, carries
// 4241 dead nodes of ≈ 69k on average and takes 50.4 / 56.4 / 51.9 ms a
// re-learn; 1/8 empties it 22 times, carries 1556 and takes 52.9 / 58.2 /
// 51.8 ms; 1/32 empties it 31 times, carries 369 and takes 56.0 / 61.9 /
// 49.2 ms. At 25 warm epochs of ≈ 4 ns a node, even 1/4's dead nodes cost
// under half a millisecond a re-learn, about what its five fewer resets
// in 200 save, so the three do not differ by more than the rounds do and
// 1/8 stays.
const deadRowShare = 8

// NewRowTable returns an empty standing table for Options.Rows.
func NewRowTable() *RowTable { return &RowTable{} }

// reset empties the table, keeping its arrays.
func (t *RowTable) reset() {
	t.nodes = t.nodes[:0]
	clear(t.slots)
	clear(t.runs)
	t.numVars = 0
}

// compile folds p's constraints into the trie of t (of a table of its own
// when t is nil) and returns the kernel over it. Two constraints share a
// row only when their flattened term lists are equal term by term — same
// variables, same coefficient bits, same order — and two rows share a node
// exactly as far as their lists agree from the start. Into an empty table
// that costs a probe of the child table per term (≈ 25 ms for the 193k
// constraints of a 6000-file corpus, whose 38.8k rows come to 68.8k
// nodes); into a standing one it costs that for the blocks the table has
// not seen (≈ 5 % of them after a six-file edit) and a copy of row numbers
// for the rest.
func compile(p *Problem, t *RowTable) *kernel {
	standing := t != nil
	if !standing {
		t = &RowTable{}
	}
	blocks, n := p.Blocks, 0
	for _, b := range blocks {
		n += b.N
	}
	if n != len(p.Constraints) {
		blocks = nil // they do not tile the constraints: no block is known
	}
	if p.NumVars < t.numVars {
		t.reset()
	}
	t.fold(p, blocks, standing)
	if t.k.dead*deadRowShare > len(t.nodes)-1 {
		t.reset()
		t.fold(p, blocks, standing)
	}
	if standing && len(t.runs) > 2*len(blocks)+64 {
		// Runs of blocks long gone; those of this problem stay.
		for key, run := range t.runs {
			if run.gen != t.gen {
				delete(t.runs, key)
			}
		}
	}

	k := &t.k
	k.c, k.lambda = p.C, p.Lambda
	k.nodes = t.nodes
	k.masks = p.masks()
	k.partial = resized(k.partial, len(t.nodes))
	k.active = resized(k.active, len(k.order))
	k.freeStart = append(resized(k.freeStart, len(k.order)+1)[:0], 0)
	// A learned row holds four terms on average.
	k.freeVar, k.freeCoef = slices.Grow(k.freeVar[:0], 4*len(k.order)), slices.Grow(k.freeCoef[:0], 4*len(k.order))
	free := k.masks.free
	for _, r := range k.order {
		// A row's path runs from its last term up; the scatter wants the
		// first term first.
		s := len(k.freeVar)
		for i := r; i != 0; i = t.nodes[i].par {
			if nd := &t.nodes[i]; free[nd.v] {
				k.freeVar, k.freeCoef = append(k.freeVar, nd.v), append(k.freeCoef, nd.coef)
			}
		}
		slices.Reverse(k.freeVar[s:])
		slices.Reverse(k.freeCoef[s:])
		k.freeStart = append(k.freeStart, int32(len(k.freeVar)))
	}
	return k
}

// resized returns s with length n, its contents unspecified, grown the way
// append grows when its capacity is short: exactly for a first use, with
// room to spare for a standing buffer that keeps growing a little.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// fold maps every constraint of p to its row in t, k.rowOf, adding the
// nodes t lacks, lists the rows so used by first occurrence (k.order) with
// the number of constraints on each (k.mult), and counts the constraints
// that took their row from memory (k.reused) and the nodes of t that no
// live row runs through (k.dead). A block whose key has a remembered run
// takes the run; any other is inserted constraint by constraint and, in a
// standing table, remembered.
func (t *RowTable) fold(p *Problem, blocks []Block, standing bool) {
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, node{}) // the root
		if len(t.slots) == 0 {
			t.slots = make([]int32, 1024)
		}
	}
	t.numVars = max(t.numVars, p.NumVars)
	t.gen++
	k := &t.k
	k.reused, k.dead = 0, 0
	rowOf := resized(k.rowOf, len(p.Constraints))
	k.rowOf = rowOf
	if blocks == nil {
		t.insert(p.Constraints, rowOf)
	}
	at := 0
	for _, b := range blocks {
		cons, rows := p.Constraints[at:at+b.N], rowOf[at:at+b.N]
		at += b.N
		if run := t.runs[b.Key]; run != nil && len(run.rows) == b.N {
			copy(rows, run.rows)
			run.gen = t.gen
			k.reused += b.N
			continue
		}
		t.insert(cons, rows)
		if standing {
			if t.runs == nil {
				t.runs = make(map[[32]byte]*rowRun, len(blocks))
			}
			t.runs[b.Key] = &rowRun{rows: slices.Clone(rows), gen: t.gen}
		}
	}

	nNodes := len(t.nodes)
	t.seen, t.alive = resized(t.seen, nNodes), resized(t.alive, nNodes)
	order, mult := k.order[:0], resized(k.mult, nNodes)
	live := 0
	for _, r := range rowOf {
		if t.seen[r] != t.gen {
			t.seen[r] = t.gen
			mult[r] = 0
			order = append(order, r)
			for i := r; i != 0 && t.alive[i] != t.gen; i = t.nodes[i].par {
				t.alive[i] = t.gen
				live++
			}
		}
		mult[r]++
	}
	k.order, k.mult = order, mult
	k.dead = nNodes - 1 - live
}

// insert finds or adds the row of each of cons and writes it to rowOf.
func (t *RowTable) insert(cons []Constraint, rowOf []int32) {
	for i := range cons {
		c := &cons[i]
		r := int32(0)
		for _, tm := range c.LHS {
			r = t.child(r, tm.Var, tm.Coef)
		}
		for _, tm := range c.RHS {
			r = t.child(r, tm.Var, -tm.Coef)
		}
		rowOf[i] = r
	}
}

// child finds or adds the node that extends node par by coef·x[v].
func (t *RowTable) child(par int32, v int, coef float64) int32 {
	bits := math.Float64bits(coef)
	mask := len(t.slots) - 1
	s := childSlot(par, int32(v), bits, mask)
	for n := t.slots[s]; n != 0; n = t.slots[s] {
		if nd := &t.nodes[n]; nd.par == par && nd.v == int32(v) && math.Float64bits(nd.coef) == bits {
			return n
		}
		s = (s + 1) & mask
	}
	n := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{par: par, v: int32(v), coef: coef})
	t.slots[s] = n
	if 2*len(t.nodes) > len(t.slots) {
		t.slots = make([]int32, 2*len(t.slots))
		mask = len(t.slots) - 1
		for n := 1; n < len(t.nodes); n++ {
			nd := &t.nodes[n]
			s := childSlot(nd.par, nd.v, math.Float64bits(nd.coef), mask)
			for t.slots[s] != 0 {
				s = (s + 1) & mask
			}
			t.slots[s] = int32(n)
		}
	}
	return n
}

// childSlot is the home slot of the child (par, v, coefficient bits) in a
// child table of mask+1 slots.
func childSlot(par, v int32, bits uint64, mask int) int {
	h := (uint64(uint32(par))<<32 | uint64(uint32(v))) * 0x9e3779b97f4a7c15
	h = (h ^ bits) * 0xbf58476d1ce4e5b9
	return int(h>>32^h) & mask
}

// pin resets the known variables to their pinned values.
func (k *kernel) pin(x []float64) {
	for i, v := range k.masks.pinIdx {
		x[v] = k.masks.pinVal[i]
	}
}

// pass recomputes every node's partial sum at x, rebuilds the active list,
// and returns the total hinge violation. A parent's number is lower than
// its child's, so one sweep in node order evaluates the trie; the
// compaction and the fold run in first-occurrence order.
func (k *kernel) pass(x []float64) float64 {
	nodes := k.nodes
	partial := k.partial[:len(nodes)]
	partial[0] = -k.c
	for i := 1; i < len(nodes); i++ {
		nd := &nodes[i]
		partial[i] = partial[nd.par] + float64(nd.coef*x[nd.v])
	}
	// Branch-free compaction: every live row is written at the cursor, and
	// only a violated one advances it.
	active := k.active
	n := 0
	for j, r := range k.order {
		active[n] = int32(j)
		var hot int
		if partial[r] > 0 {
			hot = 1
		}
		n += hot
	}
	k.nActive = n
	hinge, violated := 0.0, 0
	for _, j := range active[:n] {
		r := k.order[j]
		hinge += float64(float64(k.mult[r]) * partial[r])
		violated += int(k.mult[r])
	}
	k.violated = violated
	return hinge
}

// objectiveAt adds the λ-weighted free-variable L1 term onto a hinge
// total. Inside the solver x always carries its pinned values, so the
// free-variable L1 mass is the branchless full sum minus the precomputed
// pinned-L1 constant — no per-variable mask test or map lookup.
func (k *kernel) objectiveAt(hinge float64, x []float64) float64 {
	sum := 0.0
	for _, xi := range x {
		sum += xi
	}
	return hinge + float64(k.lambda*sum) - k.masks.pinnedL1
}

// scatter rebuilds the subgradient from the active list of the last pass,
// over free-variable terms only: pinned entries of grad stay 0 and are
// never read. A row adds each coefficient once, times its multiplicity,
// in term order; rows come in first-occurrence order, which keeps the free
// gradient bit-identical to the reference solver's even where a row names
// one variable twice.
func (k *kernel) scatter(grad []float64) {
	free := k.masks.free
	for i := range grad {
		if free[i] {
			grad[i] = k.lambda
		} else {
			grad[i] = 0
		}
	}
	for _, j := range k.active[:k.nActive] {
		s, e := k.freeStart[j], k.freeStart[j+1]
		vars, coefs := k.freeVar[s:e], k.freeCoef[s:e]
		n := float64(k.mult[k.order[j]])
		for t, tv := range vars {
			grad[tv] += float64(n * coefs[t])
		}
	}
}

// minimizeKernel is Minimize's engine: compiled constraints, one fused
// pass per epoch, and the previous epoch's objective reused instead of
// recomputed. The iterate/best/stopping bookkeeping is re-timed — epoch
// t's post-update objective is evaluated by epoch t+1's pass (or by one
// trailing pass after the loop), and the violation returned is the hinge
// of the pass that evaluated the returned iterate — but the computed
// sequence of iterates, objectives, and stopping decisions is exactly that
// of the interpreted loop over the folded problem (minimizeReference,
// reference_test.go).
func minimizeKernel(p *Problem, opts Options) *Result {
	k := compile(p, opts.Rows)
	n := p.NumVars
	x := make([]float64, n)
	if len(opts.WarmStart) == n {
		// Warm start: clamp the donated iterate into the box, then pin.
		// Pinned variables always carry their pinned values regardless of
		// what the warm vector says.
		for i, v := range opts.WarmStart {
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			x[i] = v
		}
	}
	k.pin(x)

	if opts.Iterations < 1 {
		hinge := k.pass(x)
		return &Result{X: x, Objective: k.objectiveAt(hinge, x), Violation: hinge, Stop: StopCap,
			Rows: len(k.order), RowsReused: k.reused, RowsDead: k.dead}
	}

	grad := make([]float64, n)
	m := make([]float64, n)
	vv := make([]float64, n)
	free := k.masks.free

	best := append([]float64(nil), x...)
	bestObj, bestHinge := math.Inf(1), 0.0
	prevObj := math.Inf(1)
	iters := 0
	stale := 0
	stop := StopCap
	tel := newEpochTelemetry(opts)
	// Telemetry for the epoch whose objective is still pending.
	var gradSq, stepSq float64
	pending := false

	for t := 1; t <= opts.Iterations; t++ {
		// One fused pass: the violations drive this epoch's gradient AND
		// deliver the objective of the previous epoch's iterate.
		hinge := k.pass(x)
		if t == 1 {
			bestObj, bestHinge = k.objectiveAt(hinge, x), hinge // the start point
		} else {
			obj := k.objectiveAt(hinge, x)
			if obj < bestObj {
				bestObj, bestHinge = obj, hinge
				copy(best, x)
				stale = 0
			} else {
				stale++
			}
			tel.emitPrecomputed(t-1, obj, bestObj, hinge, k.violated, gradSq, stepSq)
			pending = false
			if math.Abs(prevObj-obj) < tolerance {
				stop = StopTolerance
				break
			}
			if opts.Patience > 0 && stale >= opts.Patience {
				stop = StopPlateau
				break
			}
			prevObj = obj
		}

		k.scatter(grad)
		// Adam update with bias correction at this epoch's step, then
		// projection. Pinned variables are never touched, so no re-pinning
		// is needed.
		b1t := 1 - math.Pow(beta1, float64(t))
		b2t := 1 - math.Pow(beta2, float64(t))
		rate := learnRate / math.Sqrt(1+float64(t)/stepDecay)
		gradSq, stepSq = 0, 0
		for i := 0; i < n; i++ {
			if !free[i] {
				continue
			}
			g := grad[i]
			m[i] = float64(beta1*m[i]) + float64((1-beta1)*g)
			vv[i] = float64(beta2*vv[i]) + float64((1-beta2)*g*g)
			mHat := m[i] / b1t
			vHat := vv[i] / b2t
			old := x[i]
			x[i] -= rate * mHat / (math.Sqrt(vHat) + eps)
			if x[i] < 0 {
				x[i] = 0
			} else if x[i] > 1 {
				x[i] = 1
			}
			if tel != nil {
				gradSq += float64(g * g)
				d := x[i] - old
				stepSq += float64(d * d)
			}
		}
		iters = t
		pending = true
	}

	if pending {
		// The loop exhausted its budget with the last update unevaluated:
		// one trailing violation-only pass settles its objective.
		hinge := k.pass(x)
		obj := k.objectiveAt(hinge, x)
		if obj < bestObj {
			bestObj, bestHinge = obj, hinge
			copy(best, x)
		}
		tel.emitPrecomputed(iters, obj, bestObj, hinge, k.violated, gradSq, stepSq)
	}
	return &Result{
		X:          best,
		Objective:  bestObj,
		Violation:  bestHinge,
		Iterations: iters,
		Stop:       stop,
		Rows:       len(k.order),
		RowsReused: k.reused,
		RowsDead:   k.dead,
	}
}
