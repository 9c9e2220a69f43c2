package shard

import (
	"fmt"
	"slices"
	"time"

	"seldon/internal/constraints"
	"seldon/internal/fpcache"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
)

// The coordinator side: validate a set of shard artifacts as one
// complete, consistent partitioning of a corpus and merge their graphs
// into the global propagation graph a single-process run would have
// built. Validation is strict and every failure is a named error —
// learning from a corpus with a hole in it would silently skew the
// frequencies the whole inference rests on.
//
// The Merger is incremental: artifacts are committed one at a time, in
// any arrival order, and each contiguous prefix of slices is
// folded into the running union the moment it completes — slice i's
// per-file graphs are copied into it once and released with their
// artifact before slice i+1's need even exist. The union replays manifest
// order, slice by slice, through the same first-seen symbol translation
// (propgraph.UnionBuilder ≡ propgraph.Union), so the result is
// byte-identical to the single-process union at any shard count and any
// arrival order; out-of-order arrivals are parked and the peak
// parked+folding footprint is reported (shard.merge.peak_bytes).

// MergeOptions configures telemetry for a merge.
type MergeOptions struct {
	// Metrics, when non-nil, receives the shard.merge timer and the
	// shard.files / shard.bytes / shard.slices / shard.merge.peak_bytes
	// gauges.
	Metrics *obs.Registry
	// Log, when non-nil, receives one line per merged shard.
	Log *obs.Logger
}

// MergeResult is a validated, merged corpus: the global graph plus the
// manifest-derived facts the coordinator needs to stand in for a
// single-process run (fingerprint, counts, parse errors).
type MergeResult struct {
	// Graph is the global propagation graph: the union of the shards'
	// per-file graphs in slice order, byte-identical to a single-process
	// union of the whole corpus.
	Graph *propgraph.Graph
	// Slices is the validated slice count.
	Slices int
	// Files holds every corpus file's record in slice (= sorted) order,
	// without its graph bytes: the graphs are in Graph.
	Files []fpcache.Record
	// CorpusFingerprint is fpcache.Fingerprint over Files — equal to
	// specio.Fingerprint of the original corpus map.
	CorpusFingerprint string
	// Spans maps each corpus file to its contiguous event range in
	// Graph, in order — ready for constraints.BuildIncremental against a
	// flow cache (bench's ingest_warm builds with a loaded one).
	Spans []constraints.Span
	// Bytes totals the encoded artifact sizes (0 for artifacts built
	// in-process). The time spent in validation + union is the
	// shard.merge timer's.
	Bytes int64
	// PeakBytes is the largest encoded-artifact footprint the merge held
	// at once (parked out-of-order slices plus the slice being folded).
	// With in-order arrival it is the largest single artifact — the
	// coordinator never holds the whole corpus encoded.
	PeakBytes int64
}

// Merger folds shard artifacts into the global graph incrementally.
// Commit artifacts in any order, then Finish. Not safe for concurrent
// use; the coordinator's ingest loop serializes commits.
type Merger struct {
	opts MergeOptions

	// count is the slice count learned from the first commit (-1 until
	// then); next is the lowest slice index not yet folded.
	count int
	next  int
	// pending parks artifacts that arrived ahead of their turn.
	pending map[int]*Artifact

	ub  *propgraph.UnionBuilder
	res *MergeResult

	resident, peak int64
	wall           time.Duration
}

// NewMerger returns an empty merge.
func NewMerger(opts MergeOptions) *Merger {
	return &Merger{
		opts:    opts,
		count:   -1,
		pending: make(map[int]*Artifact),
		ub:      propgraph.NewUnionBuilder(),
		res:     &MergeResult{},
	}
}

// Commit validates one artifact against the partitioning seen so far
// and folds it — plus any parked successors it unblocks — into the
// union. The artifact's graphs must already be checksum-settled
// (ReadArtifact and ReadFile only return settled artifacts). Errors are
// the package's named sentinels; any error poisons the merge.
func (m *Merger) Commit(a *Artifact) error {
	t0 := time.Now()
	defer func() { m.wall += time.Since(t0) }()

	if a.AnalyzerVersion != fpcache.AnalyzerVersion {
		return fmt.Errorf("%w: artifact has %q, coordinator has %q",
			ErrAnalyzerVersion, a.AnalyzerVersion, fpcache.AnalyzerVersion)
	}
	if m.count == -1 {
		m.count = a.Slices
	}
	if a.Slices != m.count {
		return fmt.Errorf("%w: %d vs %d", ErrSliceCount, a.Slices, m.count)
	}
	if a.Slice < 0 || a.Slice >= m.count {
		return fmt.Errorf("%w: slice %d of %d out of range", ErrEncoding, a.Slice, m.count)
	}
	if a.Slice < m.next || m.pending[a.Slice] != nil {
		return fmt.Errorf("%w: slice %d of %d appears twice", ErrDuplicateSlice, a.Slice, m.count)
	}
	m.pending[a.Slice] = a
	m.resident += a.Size
	if m.resident > m.peak {
		m.peak = m.resident
	}
	for {
		a := m.pending[m.next]
		if a == nil {
			return nil
		}
		delete(m.pending, m.next)
		if err := m.fold(a); err != nil {
			return err
		}
		m.resident -= a.Size
		m.next++
	}
}

// fold appends one slice — the contiguous next one — to the union: its
// per-file graphs in one edit, the only copy the coordinator makes of them.
func (m *Merger) fold(a *Artifact) error {
	res := m.res
	if len(a.FileGraphs) != len(a.Files) {
		return fmt.Errorf("%w: slice %d has %d files but %d graphs",
			ErrEncoding, a.Slice, len(a.Files), len(a.FileGraphs))
	}
	base := len(m.ub.Graph().Events)
	for j := range a.Files {
		f := &a.Files[j]
		// Within an artifact the manifest is sorted (the decoder enforces
		// it); across artifacts strict increase proves the slices are
		// disjoint cuts of one global ordering.
		if k := len(res.Files); k > 0 && f.Name <= res.Files[k-1].Name {
			return fmt.Errorf("%w: slice %d file %q does not follow %q",
				ErrSliceOrder, a.Slice, f.Name, res.Files[k-1].Name)
		}
		rec := f.Record
		rec.Graph = nil
		res.Files = append(res.Files, rec)
		res.Spans = constraints.AppendSpan(res.Spans, f.Name, len(a.FileGraphs[j].Events), f.GraphHash)
	}
	m.ub.Add(a.FileGraphs...)
	res.Bytes += a.Size
	m.opts.Log.Log("shard.merge", "slice", a.Slice, "of", m.count,
		"files", len(a.Files), "events", len(m.ub.Graph().Events)-base, "bytes", a.Size)
	return nil
}

// Finish validates completeness and returns the merged result. The
// merger must not be used afterwards.
func (m *Merger) Finish() (*MergeResult, error) {
	t0 := time.Now()
	if m.count == -1 {
		return nil, fmt.Errorf("%w: no artifacts", ErrMissingSlice)
	}
	if m.next < m.count {
		return nil, fmt.Errorf("%w: slice %d of %d", ErrMissingSlice, m.next, m.count)
	}
	res := m.res
	res.Slices = m.count
	res.CorpusFingerprint = fpcache.Fingerprint(slices.Values(res.Files))
	res.Graph = m.ub.Graph()
	res.PeakBytes = m.peak
	m.wall += time.Since(t0)

	m.opts.Metrics.ObserveDuration(obs.TimerShardMerge, m.wall)
	m.opts.Metrics.Set(obs.GaugeShardFiles, float64(len(res.Files)))
	m.opts.Metrics.Set(obs.GaugeShardBytes, float64(res.Bytes))
	m.opts.Metrics.Set(obs.GaugeShardSlices, float64(m.count))
	m.opts.Metrics.Set(obs.GaugeShardMergePeakBytes, float64(res.PeakBytes))
	return res, nil
}
