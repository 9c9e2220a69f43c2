package constraints

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"time"

	"seldon/internal/lp"
	"seldon/internal/obs"
	"seldon/internal/par"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

// Delta-aware constraint building. A disjoint union assigns each corpus
// file a contiguous event-ID range, and edges never cross files, so
// every file span is a closed range in the sense of flow.go: the global
// flow pass is exactly the concatenation of per-file flow passes in span
// order. BuildIncremental exploits that: passes 1–3 (linear, cheap) run
// from scratch every time, but the superlinear pass 4 reuses a cached
// constraint block for every file whose support set is unchanged.
//
// A block's support set is everything its constraints can depend on:
// the file's internal graph structure (covered by the span's content
// hash) and, per event, the surviving representations with their global
// variable IDs for every role (covered by the fingerprint below). The
// fingerprint is global-state-aware by construction — a change in one
// file that shifts another file's frequencies past the cutoff, or
// renumbers its variables, changes that file's fingerprint and forces a
// rebuild — so a cache hit is sound, not heuristic. The equivalence
// tests pin the stronger property: the incrementally built system is
// byte-identical to Build on the same graph.
//
// The cache also remembers what it last checked each fingerprint
// against: the span's graph hash, and the build's numbering digest
// (numberingDigest), which covers everything the fingerprint reads
// besides the span's graph. A span whose graph hash and the digest are
// both what they were takes its block's fingerprint without hashing — it
// would hash to the same bytes. A cache loaded from disk remembers
// nothing, so the first build after a load hashes every span.

// Span describes the contiguous event range one corpus file contributes
// to a disjoint union. Hash identifies the file's graph content (the
// sha256 of its binary encoding); two spans with equal hashes carry
// structurally identical subgraphs.
type Span struct {
	File   string
	Lo, Hi int // event IDs [Lo, Hi)
	Hash   [32]byte
}

// AppendSpan appends the span of the next file of a union to spans: a
// graph of events events right after the last span's, identified by its
// encoding's hash. The shard merge and the incremental session cut their
// spans with it.
func AppendSpan(spans []Span, file string, events int, hash [32]byte) []Span {
	lo := 0
	if len(spans) > 0 {
		lo = spans[len(spans)-1].Hi
	}
	return append(spans, Span{File: file, Lo: lo, Hi: lo + events, Hash: hash})
}

// FlowCache holds per-file flow-constraint blocks across incremental
// builds. It is not safe for concurrent use; the owning session
// serializes builds. The blocks of a loaded cache index one table of the
// distinct constraints its file lists once, and a built system shares
// their term slices as it shares a built block's: nothing writes a term
// in place.
type FlowCache struct {
	blocks map[string]*flowBlock
	// numbering is the numbering digest of the last build that checked
	// every block's fingerprint, valid when remembered is set; each block's
	// hash is the span graph hash it was checked against then.
	numbering  [32]byte
	remembered bool
	// The last build's constraint slice and the flow blocks laid out in
	// it, in order, and its event tables: the next build writes over them
	// (see assemble and buildCore).
	cons   []lp.Constraint
	laid   []*flowBlock
	tables buildTables
}

// NewFlowCache returns an empty cache.
func NewFlowCache() *FlowCache {
	return &FlowCache{blocks: make(map[string]*flowBlock)}
}

// Len returns the number of cached file blocks.
func (c *FlowCache) Len() int {
	if c == nil {
		return 0
	}
	return len(c.blocks)
}

// DeltaStats reports what one BuildIncremental call reused.
type DeltaStats struct {
	// Spans is the number of file spans presented; SpansReused the
	// subset whose cached constraint block was valid, SpansRebuilt the
	// rest. SpansHashed counts the spans whose fingerprint was computed
	// rather than remembered. ConstraintsReused counts constraints taken
	// from the cache.
	Spans             int
	SpansReused       int
	SpansRebuilt      int
	SpansHashed       int
	ConstraintsReused int
	// FellBack reports that the spans did not cleanly tile the graph
	// (or an edge crossed a span boundary) and the flow pass ran the
	// ordinary full build instead. The result is still correct — the
	// cache just contributed nothing.
	FellBack bool
}

// BuildIncremental constructs the same constraint system Build would,
// byte for byte, reusing cached flow-constraint blocks for files whose
// support set is unchanged since the last build. spans must list the
// union's file spans in event-ID order; cache carries blocks between
// calls and is updated in place (stale files pruned, rebuilt files
// replaced). A nil cache or invalid spans degrade to a full build.
//
// A System built through a cache shares its constraint slice and its
// event tables (EventInfos and the symbols they hold, InfoFor's index)
// with the cache, and the next build through that cache writes over them:
// the System is valid until then — the lifetime a session's core.Result
// already has. Build, which has no cache, is unaffected.
func BuildIncremental(g *propgraph.Graph, seed *spec.Spec, opts Options,
	spans []Span, cache *FlowCache) (*System, DeltaStats) {
	opts = opts.WithDefaults()
	var numbering [32]byte
	digest, tables := &numbering, (*buildTables)(nil)
	if cache == nil {
		digest = nil
	} else {
		tables = &cache.tables
	}
	s, workers := buildCore(g, seed, opts, tables, digest)
	m := opts.Metrics
	st := DeltaStats{Spans: len(spans)}

	t0 := time.Now()
	cut := closedCuts(g)
	if cache == nil || !spansClosed(cut, spans) {
		st.FellBack = true
		s.assemble(s.flowBlocks(g, flowRanges(cut), workers), nil)
	} else {
		// Decide reuse for every span before building anything, so that
		// the stale ones can be rebuilt side by side and the constraint
		// slice laid out once. A span's fingerprint is remembered when its
		// graph hash and the numbering digest are both what the cache last
		// checked it against; every other span is hashed.
		remembered := cache.remembered && cache.numbering == numbering
		blocks := make([]*flowBlock, len(spans))
		fps := make([][32]byte, len(spans))
		var toHash []int
		for i := range spans {
			b := cache.blocks[spans[i].File]
			blocks[i] = b
			if remembered && b != nil && b.hash == spans[i].Hash {
				fps[i] = b.fp
			} else {
				toHash = append(toHash, i)
			}
		}
		s.spanFingerprints(spans, toHash, fps, workers)
		st.SpansHashed = len(toHash)
		var stale []int
		var ranges []evRange
		for i := range spans {
			sp := &spans[i]
			if b := blocks[i]; b != nil && b.fp == fps[i] {
				b.hash = sp.Hash
				st.ConstraintsReused += b.n()
				continue
			}
			stale = append(stale, i)
			ranges = append(ranges, evRange{sp.Lo, sp.Hi})
		}
		for k, b := range s.flowBlocks(g, ranges, workers) {
			i := stale[k]
			b.fp, b.hash = fps[i], spans[i].Hash
			cache.blocks[spans[i].File] = b
			blocks[i] = b
		}
		cache.numbering, cache.remembered = numbering, true
		st.SpansRebuilt = len(stale)
		st.SpansReused = len(spans) - len(stale)
		s.assemble(blocks, cache)
		// Prune blocks for files no longer in the union.
		if len(cache.blocks) > len(spans) {
			live := make(map[string]bool, len(spans))
			for i := range spans {
				live[spans[i].File] = true
			}
			for f := range cache.blocks {
				if !live[f] {
					delete(cache.blocks, f)
				}
			}
		}
	}
	m.ObserveDuration(obs.StageConstraintsFlow, time.Since(t0))

	s.finishMetrics(workers)
	if cache != nil {
		m.Set(obs.GaugeIncrSpansReused, float64(st.SpansReused))
		m.Set(obs.GaugeIncrConstraintsReused, float64(st.ConstraintsReused))
		// flowcache.{hits,misses} count per-span block reuse whenever a
		// cache is in play; a fallback build consulted the cache for
		// nothing, so every presented span is a miss.
		m.Add(obs.CounterFlowCacheHits, int64(st.SpansReused))
		if st.FellBack {
			m.Add(obs.CounterFlowCacheMisses, int64(len(spans)))
		} else {
			m.Add(obs.CounterFlowCacheMisses, int64(st.SpansRebuilt))
		}
	}
	return s, st
}

// spansClosed validates that spans tile [0, len(Events)) in order and
// that no edge crosses a span boundary (cut is closedCuts of the graph) —
// the precondition for per-span flow building to reproduce the global
// pass.
func spansClosed(cut []bool, spans []Span) bool {
	n := len(cut) - 1
	at := 0
	for i := range spans {
		sp := &spans[i]
		if sp.Lo != at || sp.Hi < sp.Lo || sp.Hi > n || !cut[sp.Lo] {
			return false
		}
		at = sp.Hi
	}
	return at == n
}

// spanFingerprints hashes, for each span listed in which, everything its
// constraint block depends on into fps: the file's graph content and —
// per event in the span — its candidacy, roles, and the global variable
// ID of every (surviving representation, role) pair. Variable IDs are
// global first-seen, so any upstream change that renumbers this file's
// variables (or moves a representation across the frequency cutoff)
// changes the fingerprint. The component bound is not hashed: only this
// package's tests move it, and never under a cache built at another.
// Spans are independent, so they are hashed side by side, each worker
// reusing one buffer. The encoding is prefix-free: per event, 0xff for no
// candidacy, or the roles as one byte (a subset of AllRoles, so never
// 0xff), the representation count as a uvarint and each variable ID as 4
// bytes (IDs are -1 or below the variable count, well inside int32).
func (s *System) spanFingerprints(spans []Span, which []int, fps [][32]byte, workers int) {
	bufs := make([][]byte, par.Workers(workers, len(which)))
	par.For(len(bufs), len(which), func(w, k int) {
		sp := &spans[which[k]]
		buf := append(bufs[w][:0], sp.Hash[:]...)
		for id := sp.Lo; id < sp.Hi; id++ {
			info := s.InfoFor(id)
			if info == nil {
				buf = append(buf, 0xff)
				continue
			}
			buf = append(buf, byte(info.Roles))
			buf = binary.AppendUvarint(buf, uint64(len(info.RepIDs)))
			for _, sym := range info.RepIDs {
				for _, role := range propgraph.Roles() {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(s.VarIDSym(sym, role))))
				}
			}
		}
		fps[which[k]] = sha256.Sum256(buf)
		bufs[w] = buf
	})
}

// numberingDigest hashes what a span's fingerprint reads apart from the
// span's own graph: the variable table, every (representation, role) in
// ID order; and, by spelling, the representations that survive the
// filter (survives: occur, pass the blacklist and the cutoff or the
// seed) yet have no variable. A
// representation of an event survives exactly when it is in one of those
// two sets, and the fingerprint reads of it only whether it survives and
// its variable IDs — so under equal digests a span with an unchanged
// graph has an unchanged fingerprint. It covers the few hundred surviving
// representations, not the events: microseconds a build.
func (s *System) numberingDigest(survives func(propgraph.Sym) bool) [32]byte {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(len(s.Vars)))
	for _, v := range s.Vars {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(v.Rep)))
		buf = append(append(buf, v.Rep...), byte(v.Role))
	}
	nr := int(propgraph.NumRoles)
	var varless []string
	for sym, rep := range s.Syms.Strings() {
		hasVar := false
		for _, id := range s.varIDs[sym*nr : (sym+1)*nr] {
			hasVar = hasVar || id >= 0
		}
		if !hasVar && survives(propgraph.Sym(sym)) {
			varless = append(varless, rep)
		}
	}
	slices.Sort(varless)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(varless)))
	for _, rep := range varless {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(rep)))
		buf = append(buf, rep...)
	}
	return sha256.Sum256(buf)
}
