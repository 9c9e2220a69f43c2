package constraints

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"os"
	"slices"
	"sort"

	"seldon/internal/envelope"
	"seldon/internal/fpcache"
	"seldon/internal/lp"
)

// FlowCache persistence: the per-file flow-constraint blocks written to a
// file and read back in another process. No product path persists them —
// seldon coordinate and a session build their flow blocks from the
// graph — and bench's ingest_warm is the one writer and reader. The file
// follows the incr state.bin pattern — magic, format version, the
// versions and knobs the contents depend on, deterministic body, sha256
// trailer — and, like fpcache, loading is infallible: a missing,
// truncated, corrupted, stale-version, or knob-skewed file loads as an
// empty cache (every span then misses and rebuilds, and the next Save
// repairs the file). A wrong reuse is impossible even without the
// header checks, because each block is only consulted when its support
// fingerprint matches (spanFingerprint covers the graph content and
// every global variable ID the block's constraints embed) — the header checks just turn a guaranteed fingerprint miss
// into a cheap whole-file miss.

const (
	flowCacheMagic = "SFLC"
	// flowCacheVersion 3: each distinct constraint is written once, and a
	// block lists its constraints by index.
	flowCacheVersion = 3
)

// The body after the header is three tables, each a uvarint count and its
// elements:
//
//   - coefficients: each one's bits (8 bytes), in first-use order;
//   - distinct constraints, in first-use order: each its LHS and its RHS,
//     a uvarint count of (uvarint variable, uvarint coefficient index);
//   - blocks, in name order: each its name (uvarint-prefixed), its
//     fingerprint (32 bytes), its pattern counts A, B, C and skipped
//     components (uvarints) and a uvarint count of uvarint constraint
//     indices.
//
// "First use" is in the order the blocks list their constraints, and the
// constraints their terms: so every table is a function of the cache, and
// Save of what loaded writes the file back.

// Save writes the cache to path atomically. The body is deterministic:
// blocks are emitted in sorted file order, and the constraints and
// coefficients they share once, numbered by first use.
func (c *FlowCache) Save(path string, opts Options) error {
	opts = opts.WithDefaults()
	files := make([]string, 0, c.Len())
	for f := range c.blocks {
		files = append(files, f)
	}
	sort.Strings(files)
	// A loaded table's entries are distinct already: its remap holds the
	// number of each entry numbered so far, plus one. So there are no
	// more distinct constraints than room, a loaded table's entries and
	// the built blocks' constraints.
	blocks := make([]*flowBlock, len(files))
	remaps := map[*flowTable][]int32{}
	total, room := 0, 0
	for i, f := range files {
		b := c.blocks[f]
		blocks[i] = b
		total += b.n()
		if b.table == nil {
			room += b.n()
		} else if remaps[b.table] == nil {
			remaps[b.table] = make([]int32, b.table.len())
			room += b.table.len()
		}
	}
	counts := func(b *flowBlock) [5]int { return [5]int{b.countA, b.countB, b.countC, b.skipped, b.n()} }
	// Most terms repeat the coefficient before them.
	coefNums := map[uint64]int{}
	lastBits, lastNum := uint64(0), -1
	encode := func(b []byte, con lp.Constraint) []byte {
		for _, side := range [2][]lp.Term{con.LHS, con.RHS} {
			b = binary.AppendUvarint(b, uint64(len(side)))
			for _, t := range side {
				if bits := math.Float64bits(t.Coef); bits != lastBits || lastNum < 0 {
					k, ok := coefNums[bits]
					if !ok {
						k = len(coefNums)
						coefNums[bits] = k
					}
					lastBits, lastNum = bits, k
				}
				b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(t.Var)), uint64(lastNum))
			}
		}
		return b
	}

	// Number the constraints by first use: nums holds each one's number in
	// file order, firsts the block and place of each number's first use.
	// seen finds an equal earlier constraint by its encoding's hash.
	type use struct{ block, at int32 }
	firsts := make([]use, 0, room)
	first := func(k int32) lp.Constraint { return blocks[firsts[k].block].at(int(firsts[k].at)) }
	nums := make([]int32, 0, total)
	seen, seed := newIndexSet(room), maphash.MakeSeed()
	var enc []byte
	size := 128
	for i, b := range blocks {
		size += uvarintLen(uint64(len(files[i]))) + len(files[i]) + len(b.fp)
		for _, n := range counts(b) {
			size += uvarintLen(uint64(n))
		}
		remap := remaps[b.table]
		for j := range b.n() {
			var k int32
			if remap != nil && remap[b.refs[j]] != 0 {
				k = remap[b.refs[j]] - 1
			} else {
				con := b.at(j)
				enc = encode(enc[:0], con)
				var fresh bool
				k, fresh = seen.add(maphash.Bytes(seed, enc), int32(len(firsts)), func(k int32) bool {
					return sameConstraint(first(k), con)
				})
				if fresh {
					firsts = append(firsts, use{int32(i), int32(j)})
					size += len(enc)
				}
				if remap != nil {
					remap[b.refs[j]] = k + 1
				}
			}
			nums = append(nums, k)
			size += uvarintLen(uint64(k))
		}
	}

	// size is the body's, with room for the header and the checksum.
	out := make([]byte, 0, size+8*len(coefNums))
	out = append(out, flowCacheMagic...)
	out = envelope.AppendU64(out, flowCacheVersion)
	out = envelope.AppendBytes64(out, fpcache.AnalyzerVersion)
	out = envelope.AppendF64(out, opts.C)
	out = envelope.AppendF64(out, opts.Lambda)
	out = envelope.AppendU64(out, uint64(opts.BackoffCutoff))
	coefs := make([]uint64, len(coefNums))
	for bits, k := range coefNums {
		coefs[k] = bits
	}
	out = binary.AppendUvarint(out, uint64(len(coefs)))
	for _, bits := range coefs {
		out = envelope.AppendU64(out, bits)
	}
	out = binary.AppendUvarint(out, uint64(len(firsts)))
	for k := range firsts {
		out = encode(out, first(int32(k)))
	}
	out = binary.AppendUvarint(out, uint64(len(files)))
	for i, f := range files {
		b := blocks[i]
		out = envelope.AppendBytesV(out, f)
		out = append(out, b.fp[:]...)
		for _, n := range counts(b) {
			out = binary.AppendUvarint(out, uint64(n))
		}
		for _, k := range nums[:b.n()] {
			out = binary.AppendUvarint(out, uint64(k))
		}
		nums = nums[b.n():]
	}
	if err := envelope.WriteFile(path, envelope.Seal(out)); err != nil {
		return fmt.Errorf("flowcache: %w", err)
	}
	return nil
}

// LoadFlowCache reads a persisted cache. It never errors: any problem —
// absent file, bad magic or checksum, a format or analyzer version from
// another build, knobs that differ from opts — yields a fresh empty
// cache and ok=false. opts must be the Options the coming builds will
// use; a knob change invalidates the whole file (the conservative
// reading of "the constraints may depend on it").
func LoadFlowCache(path string, opts Options) (*FlowCache, bool) {
	if c := loadFlowCache(path, opts.WithDefaults()); c != nil {
		return c, true
	}
	return NewFlowCache(), false
}

// loadFlowCache is LoadFlowCache with nil for every kind of failure. A
// file Save cannot have written is a failure too: an index out of range,
// a coefficient or constraint listed twice, or numbered out of first-use
// order, or never used.
func loadFlowCache(path string, opts Options) *FlowCache {
	// Indices into the tables, each smaller than the file, are int32s.
	data, err := os.ReadFile(path)
	if err != nil || len(data) > math.MaxInt32 {
		return nil
	}
	body, err := envelope.Open(data, flowCacheMagic)
	if err != nil {
		return nil
	}
	r := envelope.NewReader(body)
	if r.U64() != flowCacheVersion || r.String64() != fpcache.AnalyzerVersion {
		return nil
	}
	if r.F64() != opts.C || r.F64() != opts.Lambda || r.U64() != uint64(opts.BackoffCutoff) {
		return nil
	}
	// A coefficient is its bits, a term a variable and a coefficient index,
	// a constraint two term counts, a block a name length, a fingerprint,
	// four counts and a constraint count.
	const minCoef, minTerm, minCons, minBlock = 8, 1 + 1, 1 + 1, 1 + 32 + 4 + 1
	at := func() int { return len(body) - len(r.Rest()) }
	seed := maphash.MakeSeed()

	// Each table holds no entry twice, and every index into it names an
	// entry already used or the next one: entries are numbered by first
	// use. At the end every entry has been used.
	coefs := make([]float64, r.Count(r.Uvarint(), minCoef))
	seen := newIndexSet(len(coefs))
	for i := range coefs {
		raw := r.Take(minCoef)
		bits := binary.LittleEndian.Uint64(raw)
		coefs[i] = math.Float64frombits(bits)
		if _, fresh := seen.add(maphash.Bytes(seed, raw), int32(i), func(j int32) bool {
			return math.Float64bits(coefs[j]) == bits
		}); !fresh {
			return nil
		}
	}
	usedCoefs, usedCons := 0, 0

	// The distinct constraints are read twice: once to count their terms,
	// and then into a table of that size.
	n := r.Count(r.Uvarint(), minCons)
	scan, terms := *r, 0
	for range 2 * n {
		m := scan.Count(scan.Uvarint(), minTerm)
		terms += m
		for range 2 * m {
			scan.Uvarint()
		}
	}
	if scan.Err() != nil {
		return nil
	}
	t := &flowTable{terms: make([]lp.Term, 0, terms), ends: make([]int32, 1, 2*n+1)}
	seen = newIndexSet(n)
	for k := range int32(n) {
		from := at()
		for range 2 {
			for range r.Uvarint() {
				v, i := r.Uvarint(), r.Uvarint()
				if !firstUse(i, &usedCoefs, len(coefs)) {
					return nil
				}
				t.terms = append(t.terms, lp.Term{Var: int(v), Coef: coefs[i]})
			}
			t.ends = append(t.ends, int32(len(t.terms)))
		}
		// Under one coefficient numbering, and with no padded varint, two
		// constraints are equal exactly when their encodings are.
		con := t.constraint(k)
		if _, fresh := seen.add(maphash.Bytes(seed, body[from:at()]), k, func(j int32) bool {
			return sameConstraint(t.constraint(j), con)
		}); !fresh {
			return nil
		}
	}
	if usedCoefs != len(coefs) {
		return nil
	}

	// A block's references are carved from slabs no larger than the
	// references the bytes left can hold.
	var refs []int32
	c := NewFlowCache()
	for n, prev := r.Count(r.Uvarint(), minBlock), ""; n > 0 && r.Err() == nil; n-- {
		f := r.StringV()
		// Save writes each name once, in sorted order.
		if len(c.blocks) > 0 && f <= prev {
			return nil
		}
		prev = f
		blk := &flowBlock{table: t}
		copy(blk.fp[:], r.Take(len(blk.fp)))
		blk.countA = int(r.Uvarint())
		blk.countB = int(r.Uvarint())
		blk.countC = int(r.Uvarint())
		blk.skipped = int(r.Uvarint())
		m := r.Count(r.Uvarint(), 1)
		if len(refs) < m {
			refs = make([]int32, max(m, min(len(r.Rest()), 4096)))
		}
		blk.refs = refs[:m:m]
		refs = refs[m:]
		for i := range blk.refs {
			k := r.Uvarint()
			if !firstUse(k, &usedCons, t.len()) {
				return nil
			}
			blk.refs[i] = int32(k)
		}
		c.blocks[f] = blk
	}
	if r.Close() != nil || usedCons != t.len() {
		return nil
	}
	return c
}

// firstUse reports whether k is an index Save can have written into a
// table of n entries numbered by first use, of which the file has used
// *used so far: one of those, or the next, which it counts as used.
func firstUse(k uint64, used *int, n int) bool {
	if k > uint64(*used) || k >= uint64(n) {
		return false
	}
	if k == uint64(*used) {
		*used++
	}
	return true
}

// sameConstraint reports whether a and b have the same terms, their
// coefficients compared bit for bit.
func sameConstraint(a, b lp.Constraint) bool {
	same := func(x, y lp.Term) bool {
		return x.Var == y.Var && math.Float64bits(x.Coef) == math.Float64bits(y.Coef)
	}
	return slices.EqualFunc(a.LHS, b.LHS, same) && slices.EqualFunc(a.RHS, b.RHS, same)
}

// uvarintLen returns the length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// An indexSet finds an item equal to a new one among the items added
// before it, of which there are at most as many as it was made for. It is
// an open-addressed table of the items' indices, at least half empty,
// probed from an item's hash; unlike a map keyed by the items it costs
// one int32 a slot and copies no item.
type indexSet []int32 // an index plus one; 0 is empty

func newIndexSet(n int) indexSet {
	size := 1
	for size < 2*n {
		size *= 2
	}
	return make(indexSet, size)
}

// add returns the index of an item equal to the one with hash h, as
// equal reports it, and false; or it enters the item's index v and
// returns it and true.
func (s indexSet) add(h uint64, v int32, equal func(int32) bool) (int32, bool) {
	for ; ; h++ {
		at := &s[h&uint64(len(s)-1)]
		if *at == 0 {
			*at = v + 1
			return v, true
		}
		if equal(*at - 1) {
			return *at - 1, false
		}
	}
}
