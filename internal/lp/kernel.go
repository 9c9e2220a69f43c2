package lp

import (
	"math"
	"slices"

	"seldon/internal/par"
)

// This file holds the compiled solver kernel. compile hash-conses a
// Problem's constraints into distinct CSR rows — big code repeats the same
// API triples, so a learned system carries each row several times over —
// and precomputes the free-variable mask and pinned-L1 constant; the
// per-epoch work is then one dot product per distinct row, one branch-free
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
// first occur — bit-for-bit equal at every shard count, through a standing
// RowTable or a fresh one, and bit-for-bit what the interpreted solver of
// the folded problem (the minimizeReference oracle in reference_test.go)
// computes, objective included. Rows are evaluated independently, so
// sharding the pass cannot change them, and a row's dot product does not
// depend on where the table keeps it. Every floating-point reduction
// (hinge fold, L1 fold, gradient scatter, Adam update) runs sequentially,
// the compacted list holds the violated rows in first-occurrence order, and
// every product that meets a sum is converted — float64(n·value) — so that
// no architecture fuses it into the add (`make fmacheck` holds that). The
// only terms the scatter skips are those on pinned variables, whose
// gradient entries nobody reads. Moving a copy of a constraint that is not
// its first therefore changes nothing; moving a first occurrence reorders
// the sums and may move the result in its last bits.

// kernelChunk is the fixed number of rows one pass task covers. Chunk
// boundaries depend only on the problem — never on Options.Shards — so the
// work decomposition is stable across shard counts; since chunks share no
// outputs it only affects scheduling.
const kernelChunk = 2048

// kernel is the compiled form of a Problem.
type kernel struct {
	c      float64
	lambda float64

	// Distinct rows, the table's: row r owns
	// termVar/termCoef[rowStart[r]:rowStart[r+1]], LHS terms first and RHS
	// terms after with negated coefficients, so one fused dot product
	// (minus C) reproduces Constraint.Violation exactly. rowOf maps each
	// constraint to its row; order lists the rows constraints map to (the
	// live ones; a standing table may hold more, see RowTable) by first
	// occurrence in rowOf, and mult[r] counts the constraints on live row r.
	rowStart []int32
	termVar  []int32
	termCoef []float64
	rowOf    []int32
	order    []int32
	mult     []int32
	// reused counts the constraints that took their row from a remembered
	// block, dead the rows nothing maps to.
	reused, dead int

	// The same rows restricted to free variables, term order kept: what
	// the gradient scatter walks.
	freeStart []int32
	freeVar   []int32
	freeCoef  []float64

	masks *problemMask // free mask, pinned indices, pinned-L1 constant

	// Per-pass state. viol[r] caches L_r − R_r − C and hot[r] is 1 when it
	// is positive; active[:nActive] lists the violated live rows in the
	// order of order, and violated is how many constraints sit on them. The
	// hinge fold and the scatter read these instead of re-walking rows.
	viol     []float64
	hot      []uint8
	active   []int32
	nActive  int
	violated int
}

// RowTable is what compile builds: the distinct rows of the problems it
// has compiled, their hash table, and the kernel's arrays. Minimize makes
// one per solve unless it is handed a standing one (Options.Rows), which
// then carries over to the next solve whatever the next problem shares
// with this one:
//
//   - A block of constraints the problem says it took whole from a keyed
//     source (Problem.Blocks) is hash-consed once. The rows its
//     constraints fell on are remembered under the key, and a later
//     problem showing the key gets them back as one copy, with no
//     hashing and no term compare.
//   - Rows stay. A row no constraint of the current problem maps to is
//     dead: every pass still takes its dot product, nothing reads it.
//     Once the dead rows pass 1/deadRowShare of the table, or the problem
//     has fewer variables than some row may mention, compile empties the
//     table and compiles the problem as the first.
//   - The kernel's arrays are reused, so a compile allocates only what a
//     larger problem makes them grow by.
//
// Row numbers therefore depend on what the table has seen; nothing else
// does. Every floating-point fold runs over order, the live rows by first
// occurrence in the problem at hand (see the determinism contract above),
// and a row's dot product does not depend on its number, so a solve
// through a standing table is bit-identical to one through a fresh table,
// whatever either holds.
//
// A RowTable is not safe for concurrent use, and a Result computed
// through it does not refer to it.
type RowTable struct {
	rowStart []int32
	termVar  []int32
	termCoef []float64
	// hashes[r] is row r's hash; slots is the open-addressed table of
	// row+1 (0 = empty) over them, doubled whenever it gets half full so
	// that it stays as small as the distinct rows, not the constraints,
	// require.
	hashes []uint64
	slots  []int32
	// numVars is the largest NumVars of the problems whose rows the table
	// holds: no row mentions a variable from there on.
	numVars int

	// runs remembers, per block key, the rows of the block's constraints;
	// gen numbers the compiles, and a run or a row last seen in this one is
	// part of the current problem.
	runs map[[32]byte]*rowRun
	gen  uint32
	seen []uint32

	// k is the kernel of the last compile; its arrays are what the next
	// one reuses.
	k kernel
}

type rowRun struct {
	rows []int32
	gen  uint32
}

// deadRowShare bounds the dead rows of a standing table at
// 1/deadRowShare of all its rows. A dead row costs its dot product in
// every epoch; emptying the table costs one cold compile (≈ 30 ms at 6000
// files, against ≈ 3 ms for a compile that remembers its blocks). A
// six-file edit kills ≈ 20 of the 38.8k rows, an edit that renumbers
// variables thousands at once — all of them or, when only late variables
// move, some 3.5k, which is the case the share decides: carry them or
// start over. Measured over 200 re-learns of a 6000-file session (six
// files flipped each time, 30 of the edits renumbering), three rounds each:
// 1/8 empties the table 20 times, carries 835 dead rows on average and
// takes 54.7 / 52.4 / 51.1 ms a re-learn; 1/4 empties it 15 times, carries
// 3101 and takes 53.4 / 53.4 / 51.0 ms; 1/32 empties it 27 times, carries
// 287 and takes 54.2 / 53.4 / 52.3 ms. With the reduction folded an epoch
// is cheap enough that the three no longer differ by more than the rounds
// do (they were 76.5, 80.5 and 83 ms when 1/8 was chosen), so 1/8 stays.
const deadRowShare = 8

// NewRowTable returns an empty standing table for Options.Rows.
func NewRowTable() *RowTable { return &RowTable{} }

// reset empties the table, keeping its arrays.
func (t *RowTable) reset() {
	t.rowStart, t.termVar, t.termCoef = t.rowStart[:0], t.termVar[:0], t.termCoef[:0]
	t.hashes = t.hashes[:0]
	clear(t.slots)
	clear(t.runs)
	t.numVars = 0
}

// compile folds p's constraints into distinct rows of t (of a table of
// its own when t is nil) and returns the kernel over them. Two constraints
// share a row only when their flattened term lists are equal term by term
// — same variables, same coefficient bits, same order — the hash merely
// picks the bucket. Into an empty table that costs about two walks over
// the terms plus a table probe per constraint (≈ 20 ms for the 193k
// constraints of a 6000-file corpus, where an epoch over the 38.8k rows
// then takes ≈ 0.3 ms); into a standing one it costs that for the blocks
// the table has not seen (≈ 5 % of them after a six-file edit) and a copy
// of row numbers for the rest, ≈ 3 ms in all.
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
	if t.k.dead*deadRowShare > len(t.hashes) {
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
	nRows := len(t.hashes)
	k.c, k.lambda = p.C, p.Lambda
	k.rowStart, k.termVar, k.termCoef = t.rowStart, t.termVar, t.termCoef
	k.masks = p.masks()
	k.viol, k.hot = resized(k.viol, nRows), resized(k.hot, nRows)
	k.active = resized(k.active, len(k.order))
	k.freeStart = append(resized(k.freeStart, nRows+1)[:0], 0)
	k.freeVar = resized(k.freeVar, len(k.termVar))[:0]
	k.freeCoef = resized(k.freeCoef, len(k.termVar))[:0]
	free := k.masks.free
	for r := 0; r < nRows; r++ {
		for i := k.rowStart[r]; i < k.rowStart[r+1]; i++ {
			if v := k.termVar[i]; free[v] {
				k.freeVar, k.freeCoef = append(k.freeVar, v), append(k.freeCoef, k.termCoef[i])
			}
		}
		k.freeStart = append(k.freeStart, int32(len(k.freeVar)))
	}
	return k
}

// resized returns s with length n, its contents unspecified, grown the way
// append grows when its capacity is short: exactly for a first use, with
// room to spare for a standing buffer that keeps growing a little.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// fold maps every constraint of p to its row in t, k.rowOf, adding the
// rows t lacks, lists the rows so used by first occurrence (k.order) with
// the number of constraints on each (k.mult), and counts the constraints
// that took their row from memory (k.reused) and the rows of t that nothing
// maps to (k.dead). A block whose key has a remembered run takes the run;
// any other is hash-consed constraint by constraint and, in a standing
// table, remembered.
func (t *RowTable) fold(p *Problem, blocks []Block, standing bool) {
	nCons := len(p.Constraints)
	empty := len(t.rowStart) == 0
	if empty {
		// Every constraint is staged at the tail of the term arrays and a
		// duplicate truncated away again, so an empty table is sized for no
		// folding at all and cut down to the distinct rows afterwards.
		nTerms := 0
		for i := range p.Constraints {
			nTerms += len(p.Constraints[i].LHS) + len(p.Constraints[i].RHS)
		}
		t.termVar, t.termCoef = slices.Grow(t.termVar, nTerms), slices.Grow(t.termCoef, nTerms)
		t.rowStart = append(t.rowStart, 0)
		if len(t.slots) == 0 {
			t.slots = make([]int32, 1024)
		}
	}
	staged := cap(t.termVar)
	t.numVars = max(t.numVars, p.NumVars)
	t.gen++
	k := &t.k
	k.reused, k.dead = 0, 0
	rowOf := resized(k.rowOf, nCons)
	k.rowOf = rowOf
	if blocks == nil {
		t.hashIn(p.Constraints, rowOf)
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
		t.hashIn(cons, rows)
		if standing {
			if t.runs == nil {
				t.runs = make(map[[32]byte]*rowRun, len(blocks))
			}
			t.runs[b.Key] = &rowRun{rows: slices.Clone(rows), gen: t.gen}
		}
	}
	if len(t.termVar) < staged/2 {
		t.termVar, t.termCoef = slices.Clone(t.termVar), slices.Clone(t.termCoef)
	}

	nRows := len(t.hashes)
	t.seen = slices.Grow(t.seen, max(nRows-len(t.seen), 0))[:nRows]
	order, mult := resized(k.order, nRows)[:0], resized(k.mult, nRows)
	for _, r := range rowOf {
		if t.seen[r] != t.gen {
			t.seen[r] = t.gen
			mult[r] = 0
			order = append(order, r)
		}
		mult[r]++
	}
	k.order, k.mult = order, mult
	k.dead = nRows - len(order)
}

// hashIn finds or adds the row of each of cons and writes it to rowOf.
func (t *RowTable) hashIn(cons []Constraint, rowOf []int32) {
	// Locals, not fields: the appends below are the hot loop.
	termVar, termCoef, rowStart, hashes, table := t.termVar, t.termCoef, t.rowStart, t.hashes, t.slots
	for i := range cons {
		c := &cons[i]
		tail := len(termVar)
		h := uint64(14695981039346656037)
		for _, t := range c.LHS {
			termVar, termCoef = append(termVar, int32(t.Var)), append(termCoef, t.Coef)
			h = mixTerm(h, t.Var, t.Coef)
		}
		for _, t := range c.RHS {
			termVar, termCoef = append(termVar, int32(t.Var)), append(termCoef, -t.Coef)
			h = mixTerm(h, t.Var, -t.Coef)
		}
		slot := tableSlot(h, table)
		for ; table[slot] != 0; slot = (slot + 1) & (len(table) - 1) {
			r := table[slot] - 1
			if hashes[r] == h && sameTerms(termVar, termCoef, int(rowStart[r]), int(rowStart[r+1]), tail) {
				break
			}
		}
		if table[slot] != 0 {
			rowOf[i] = table[slot] - 1
			termVar, termCoef = termVar[:tail], termCoef[:tail]
			continue
		}
		rowOf[i] = int32(len(hashes))
		hashes = append(hashes, h)
		table[slot] = int32(len(hashes))
		rowStart = append(rowStart, int32(len(termVar)))
		if 2*len(hashes) > len(table) {
			table = make([]int32, 2*len(table))
			for r, rh := range hashes {
				slot := tableSlot(rh, table)
				for table[slot] != 0 {
					slot = (slot + 1) & (len(table) - 1)
				}
				table[slot] = int32(r + 1)
			}
		}
	}
	t.termVar, t.termCoef, t.rowStart, t.hashes, t.slots = termVar, termCoef, rowStart, hashes, table
}

// mixTerm folds one term into a row hash (FNV-1a over the two words).
func mixTerm(h uint64, v int, coef float64) uint64 {
	h = (h ^ uint64(v)) * 1099511628211
	return (h ^ math.Float64bits(coef)) * 1099511628211
}

// tableSlot is the home slot of hash h in a power-of-two table.
func tableSlot(h uint64, table []int32) int { return int(h>>32^h) & (len(table) - 1) }

// sameTerms reports whether the committed row [lo, hi) equals the row
// staged at [tail, len).
func sameTerms(vars []int32, coefs []float64, lo, hi, tail int) bool {
	if hi-lo != len(vars)-tail {
		return false
	}
	for t := lo; t < hi; t++ {
		s := tail + t - lo
		if vars[t] != vars[s] || math.Float64bits(coefs[t]) != math.Float64bits(coefs[s]) {
			return false
		}
	}
	return true
}

// rows is the number of distinct rows.
func (k *kernel) rows() int { return len(k.rowStart) - 1 }

// pin resets the known variables to their pinned values.
func (k *kernel) pin(x []float64) {
	for i, v := range k.masks.pinIdx {
		x[v] = k.masks.pinVal[i]
	}
}

// passChunk computes viol[r] and hot[r] for the rows of one chunk.
func (k *kernel) passChunk(ci int, x []float64) {
	lo := ci * kernelChunk
	hi := lo + kernelChunk
	if hi > k.rows() {
		hi = k.rows()
	}
	for r := lo; r < hi; r++ {
		s, e := k.rowStart[r], k.rowStart[r+1]
		vars, coefs := k.termVar[s:e], k.termCoef[s:e]
		v := -k.c
		for t, tv := range vars {
			v += float64(coefs[t] * x[tv])
		}
		k.viol[r] = v
		var h uint8
		if v > 0 {
			h = 1
		}
		k.hot[r] = h
	}
}

// pass recomputes every row's violation at x, dealing the row chunks to
// up to `shards` goroutines, rebuilds the active list, and returns the
// total hinge violation. The compaction and the fold run sequentially in
// first-occurrence order, so the result does not depend on shards.
func (k *kernel) pass(x []float64, shards int) float64 {
	nChunks := (k.rows() + kernelChunk - 1) / kernelChunk
	par.For(shards, nChunks, func(_, ci int) { k.passChunk(ci, x) })
	// Branch-free compaction: every live row is written at the cursor, and
	// only a violated one advances it.
	active, hot := k.active, k.hot
	n := 0
	for _, r := range k.order {
		active[n] = r
		n += int(hot[r])
	}
	k.nActive = n
	hinge, violated := 0.0, 0
	for _, r := range active[:n] {
		hinge += float64(float64(k.mult[r]) * k.viol[r])
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
// never read. A row adds each coefficient once, times its multiplicity. It
// always runs sequentially in first-occurrence order, which keeps the free
// gradient bit-identical at every shard count (and to the reference
// solver).
func (k *kernel) scatter(grad []float64) {
	free := k.masks.free
	for i := range grad {
		if free[i] {
			grad[i] = k.lambda
		} else {
			grad[i] = 0
		}
	}
	for _, r := range k.active[:k.nActive] {
		s, e := k.freeStart[r], k.freeStart[r+1]
		vars, coefs := k.freeVar[s:e], k.freeCoef[s:e]
		n := float64(k.mult[r])
		for t, tv := range vars {
			grad[tv] += float64(n * coefs[t])
		}
	}
}

// minimizeKernel is Minimize's engine: compiled constraints, one fused
// pass per epoch, and the previous epoch's objective reused instead of
// recomputed. The iterate/best/stopping bookkeeping is re-timed — epoch
// t's post-update objective is evaluated by epoch t+1's pass (or by one
// trailing pass after the loop) — but the computed sequence of iterates,
// objectives, and stopping decisions is exactly that of the interpreted
// loop over the folded problem (minimizeReference, reference_test.go).
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
		hinge := k.pass(x, opts.Shards)
		return &Result{X: x, Objective: k.objectiveAt(hinge, x), Violation: hinge, Stop: StopCap,
			Rows: len(k.order), RowsReused: k.reused, RowsDead: k.dead}
	}

	grad := make([]float64, n)
	m := make([]float64, n)
	vv := make([]float64, n)
	free := k.masks.free

	best := append([]float64(nil), x...)
	bestObj := math.Inf(1)
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
		hinge := k.pass(x, opts.Shards)
		if t == 1 {
			bestObj = k.objectiveAt(hinge, x) // objective of the start point
		} else {
			obj := k.objectiveAt(hinge, x)
			if obj < bestObj {
				bestObj = obj
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
		hinge := k.pass(x, opts.Shards)
		obj := k.objectiveAt(hinge, x)
		if obj < bestObj {
			bestObj = obj
			copy(best, x)
		}
		tel.emitPrecomputed(iters, obj, bestObj, hinge, k.violated, gradSq, stepSq)
	}
	return &Result{
		X:          best,
		Objective:  bestObj,
		Violation:  k.pass(best, opts.Shards),
		Iterations: iters,
		Stop:       stop,
		Rows:       len(k.order),
		RowsReused: k.reused,
		RowsDead:   k.dead,
	}
}
