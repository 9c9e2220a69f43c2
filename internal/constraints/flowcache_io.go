package constraints

import (
	"fmt"
	"os"
	"sort"

	"seldon/internal/envelope"
	"seldon/internal/fpcache"
	"seldon/internal/lp"
)

// FlowCache persistence: the per-file flow-constraint blocks survive the
// process, so a fresh coordinator (or a new -session-dir run over the
// same corpus) reuses pass-4 work instead of re-deriving it. The file
// follows the incr state.bin pattern — magic, format version, the
// versions and knobs the contents depend on, deterministic body, sha256
// trailer — and, like fpcache, loading is infallible: a missing,
// truncated, corrupted, stale-version, or knob-skewed file loads as an
// empty cache (every span then misses and rebuilds, and the next Save
// repairs the file). A wrong reuse is impossible even without the
// header checks, because each block is only consulted when its support
// fingerprint matches (spanFingerprint covers the graph content, the
// component bound, and every global variable ID the block's constraints
// embed) — the header checks just turn a guaranteed fingerprint miss
// into a cheap whole-file miss.

const (
	flowCacheMagic   = "SFLC"
	flowCacheVersion = 1
)

// Save writes the cache to path atomically. The body is deterministic:
// blocks are emitted in sorted file order.
func (c *FlowCache) Save(path string, opts Options) error {
	opts = opts.WithDefaults()
	files := make([]string, 0, c.Len())
	for f := range c.blocks {
		files = append(files, f)
	}
	sort.Strings(files)

	appendTerms := func(b []byte, terms []lp.Term) []byte {
		b = envelope.AppendU64(b, uint64(len(terms)))
		for _, t := range terms {
			b = envelope.AppendU64(b, uint64(t.Var))
			b = envelope.AppendF64(b, t.Coef)
		}
		return b
	}
	b := append(make([]byte, 0, 4096), flowCacheMagic...)
	b = envelope.AppendU64(b, flowCacheVersion)
	b = envelope.AppendBytes64(b, fpcache.AnalyzerVersion)
	b = envelope.AppendF64(b, opts.C)
	b = envelope.AppendF64(b, opts.Lambda)
	b = envelope.AppendU64(b, uint64(opts.BackoffCutoff))
	b = envelope.AppendU64(b, uint64(opts.MaxComponent))
	b = envelope.AppendU64(b, uint64(len(files)))
	for _, f := range files {
		blk := c.blocks[f]
		b = envelope.AppendBytes64(b, f)
		b = append(b, blk.fp[:]...)
		b = envelope.AppendU64(b, uint64(blk.countA))
		b = envelope.AppendU64(b, uint64(blk.countB))
		b = envelope.AppendU64(b, uint64(blk.countC))
		b = envelope.AppendU64(b, uint64(blk.skipped))
		b = envelope.AppendU64(b, uint64(len(blk.cons)))
		for i := range blk.cons {
			b = appendTerms(b, blk.cons[i].LHS)
			b = appendTerms(b, blk.cons[i].RHS)
		}
	}
	if err := envelope.WriteFile(path, envelope.Seal(b)); err != nil {
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

// loadFlowCache is LoadFlowCache with nil for every kind of failure.
func loadFlowCache(path string, opts Options) *FlowCache {
	data, err := os.ReadFile(path)
	if err != nil {
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
	if r.F64() != opts.C || r.F64() != opts.Lambda ||
		r.U64() != uint64(opts.BackoffCutoff) || r.U64() != uint64(opts.MaxComponent) {
		return nil
	}
	// A term is a variable and a coefficient, a constraint two term
	// counts, a block a name length, a fingerprint and five counts.
	const minTerm, minCons, minBlock = 8 + 8, 8 + 8, 8 + 32 + 5*8
	// Term lists, two a constraint and mostly of a term or two, are carved
	// from slabs no larger than the terms the bytes left can hold.
	var slab []lp.Term
	terms := func() []lp.Term {
		n := r.Count(r.U64(), minTerm)
		if len(slab) < n {
			slab = make([]lp.Term, max(n, min(len(r.Rest())/minTerm, 4096)))
		}
		ts := slab[:n:n]
		slab = slab[n:]
		for i := range ts {
			ts[i] = lp.Term{Var: int(r.U64()), Coef: r.F64()}
		}
		return ts
	}
	c := NewFlowCache()
	for n, prev := r.Count(r.U64(), minBlock), ""; n > 0 && r.Err() == nil; n-- {
		f := r.String64()
		// Save writes each name once, in sorted order.
		if len(c.blocks) > 0 && f <= prev {
			return nil
		}
		prev = f
		blk := &flowBlock{}
		copy(blk.fp[:], r.Take(len(blk.fp)))
		blk.countA = int(r.U64())
		blk.countB = int(r.U64())
		blk.countC = int(r.U64())
		blk.skipped = int(r.U64())
		blk.cons = make([]lp.Constraint, r.Count(r.U64(), minCons))
		for i := range blk.cons {
			blk.cons[i] = lp.Constraint{LHS: terms(), RHS: terms()}
		}
		c.blocks[f] = blk
	}
	if r.Close() != nil {
		return nil
	}
	return c
}
