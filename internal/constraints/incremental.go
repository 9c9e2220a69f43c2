package constraints

import (
	"crypto/sha256"
	"encoding/binary"
	"time"

	"seldon/internal/obs"
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

// Span describes the contiguous event range one corpus file contributes
// to a disjoint union. Hash identifies the file's graph content (the
// sha256 of its binary encoding); two spans with equal hashes carry
// structurally identical subgraphs.
type Span struct {
	File   string
	Lo, Hi int // event IDs [Lo, Hi)
	Hash   [32]byte
}

// FlowCache holds per-file flow-constraint blocks across incremental
// builds. It is not safe for concurrent use; the owning session
// serializes builds.
type FlowCache struct {
	blocks map[string]*flowBlock
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
	// rest. ConstraintsReused counts constraints taken from the cache.
	Spans             int
	SpansReused       int
	SpansRebuilt      int
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
func BuildIncremental(g *propgraph.Graph, seed *spec.Spec, opts Options,
	spans []Span, cache *FlowCache) (*System, DeltaStats) {
	opts = opts.WithDefaults()
	s, workers := buildCore(g, seed, opts)
	m := opts.Metrics
	st := DeltaStats{Spans: len(spans)}

	t0 := time.Now()
	cut := closedCuts(g)
	if cache == nil || !spansClosed(cut, spans) {
		st.FellBack = true
		s.assemble(s.flowBlocks(g, flowRanges(cut), workers), false)
	} else {
		// Decide reuse for every span before building anything, so that
		// the stale ones can be rebuilt side by side and the constraint
		// slice allocated once.
		fps := s.spanFingerprints(spans, workers)
		blocks := make([]*flowBlock, len(spans))
		var stale []int
		var ranges []shardRange
		for i := range spans {
			sp := &spans[i]
			if b := cache.blocks[sp.File]; b != nil && b.fp == fps[i] {
				blocks[i] = b
				st.ConstraintsReused += len(b.cons)
				continue
			}
			stale = append(stale, i)
			ranges = append(ranges, shardRange{sp.Lo, sp.Hi})
		}
		for k, b := range s.flowBlocks(g, ranges, workers) {
			i := stale[k]
			b.fp = fps[i]
			cache.blocks[spans[i].File] = b
			blocks[i] = b
		}
		st.SpansRebuilt = len(stale)
		st.SpansReused = len(spans) - len(stale)
		s.assemble(blocks, true)
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

// spanFingerprints hashes, for each span, everything its constraint
// block depends on: the file's graph content, the component size bound,
// and — per event in the span — its candidacy, roles, and the global
// variable ID of every (surviving representation, role) pair. Variable
// IDs are global first-seen, so any upstream change that renumbers this
// file's variables (or moves a representation across the frequency
// cutoff) changes the fingerprint. Spans are independent, so contiguous
// runs of them are hashed side by side.
func (s *System) spanFingerprints(spans []Span, workers int) [][32]byte {
	fps := make([][32]byte, len(spans))
	runShards(shardRanges(len(spans), workers), func(_, lo, hi int) {
		var buf []byte
		for i := lo; i < hi; i++ {
			sp := &spans[i]
			buf = append(buf[:0], sp.Hash[:]...)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Opts.MaxComponent))
			for id := sp.Lo; id < sp.Hi; id++ {
				info := s.InfoFor(id)
				if info == nil {
					buf = binary.LittleEndian.AppendUint64(buf, ^uint64(0))
					continue
				}
				buf = binary.LittleEndian.AppendUint64(buf, uint64(info.Roles))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(len(info.RepIDs)))
				for _, sym := range info.RepIDs {
					for _, role := range propgraph.Roles() {
						buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(s.VarIDSym(sym, role))))
					}
				}
			}
			fps[i] = sha256.Sum256(buf)
		}
	})
	return fps
}
