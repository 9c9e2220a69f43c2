package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/fpcache"
	"seldon/internal/propgraph"
	"seldon/internal/shard"
	"seldon/internal/spec"
)

// shardCount is how many worker artifacts the coordinator ingests.
const shardCount = 4

// ingestWarm is the coordinator's own cost with every cache warm:
// pre-encoded shard artifacts arrive in a shuffled order, are decoded,
// checksummed and merged, and the constraint system is built against a
// flow-block cache loaded from disk. It stops before the solve. The
// binary codecs and the merge do most of the work; lex, parse, dataflow
// and lp do none, so the solver cannot mask a regression here.
type ingestWarm struct {
	cfg   config
	files map[string]string
	seed  *spec.Spec
	core  core.Config
	copts constraints.Options

	arts      []*shard.Artifact // as built, slice order; they keep the per-file graphs
	encoded   [][]byte
	flowPath  string
	buildTime time.Duration // set-up's shard.BuildFromCorpus calls
	encTime   time.Duration // set-up's Artifact.Encode calls
	rng       *rand.Rand

	// The single-process answer the merged result is checked against.
	refGraph   []byte
	refVars    int
	refConstrs int
}

func (w *ingestWarm) setup() error {
	w.files = corpus.Generate(corpus.Config{Files: w.cfg.files, Seed: w.cfg.seed}).FileMap()
	w.seed = corpus.ExperimentSeed()
	w.core = core.Config{Workers: w.cfg.p}
	w.copts = constraintOpts(w.core)
	w.rng = rand.New(rand.NewSource(w.cfg.seed))

	for i := 0; i < shardCount; i++ {
		var a *shard.Artifact
		var err error
		w.buildTime += timed(func() { a, _, err = shard.BuildFromCorpus(w.files, i, shardCount, w.core) })
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		var enc []byte
		w.encTime += timed(func() { enc = a.Encode() })
		w.arts = append(w.arts, a)
		w.encoded = append(w.encoded, enc)
	}

	// One cold ingest fills the flow-block cache and persists it: the
	// state a coordinator finds on its second run over a corpus.
	inOrder := make([]int, shardCount)
	for i := range inOrder {
		inOrder[i] = i
	}
	mres, err := w.merge(nil, inOrder)
	if err != nil {
		return err
	}
	fc := constraints.NewFlowCache()
	constraints.BuildIncremental(mres.Graph, w.seed, w.copts, mres.Spans, fc)
	w.flowPath = filepath.Join(w.cfg.tmp, "flowcache.bin")
	return fc.Save(w.flowPath, w.copts)
}

// merge streams the artifacts in the given arrival order through the
// decoder into a merger.
func (w *ingestWarm) merge(tr *tracer, order []int) (*shard.MergeResult, error) {
	m := shard.NewMerger(shard.MergeOptions{})
	for _, i := range order {
		var a *shard.Artifact
		var err error
		tr.do("shard.read", func() {
			a, err = shard.ReadArtifact(bytes.NewReader(w.encoded[i]), shard.ReadOptions{})
		})
		if err == nil {
			tr.do("shard.merge", func() { err = m.Commit(a) })
		}
		if err != nil {
			return nil, fmt.Errorf("artifact %d: %w", i, err)
		}
	}
	var mres *shard.MergeResult
	var err error
	tr.do("shard.merge", func() { mres, err = m.Finish() })
	return mres, err
}

type ingested struct {
	mres  *shard.MergeResult
	sys   *constraints.System
	delta constraints.DeltaStats
}

// ingest is the timed operation: everything the coordinator does
// between the first artifact byte and handing a system to the solver.
func (w *ingestWarm) ingest(tr *tracer) (*ingested, error) {
	out := &ingested{}
	var err error
	tr.operation("op.ingest", func() {
		if out.mres, err = w.merge(tr, w.rng.Perm(shardCount)); err != nil {
			return
		}
		var fc *constraints.FlowCache
		var warm bool
		tr.do("constraints.flowcache_load", func() { fc, warm = constraints.LoadFlowCache(w.flowPath, w.copts) })
		if !warm {
			err = fmt.Errorf("flow cache %s did not load", w.flowPath)
			return
		}
		tr.do("constraints.build_incremental", func() {
			out.sys, out.delta = constraints.BuildIncremental(out.mres.Graph, w.seed, w.copts, out.mres.Spans, fc)
		})
	})
	return out, err
}

// reference computes the single-process answer from the same per-file
// graphs the workers shipped: their direct union and the full build.
func (w *ingestWarm) reference(tr *tracer) {
	var graphs []*propgraph.Graph
	for _, a := range w.arts {
		graphs = append(graphs, a.FileGraphs...)
	}
	union := propgraph.Union(graphs...)
	w.refGraph = union.AppendBinary(nil)
	var sys *constraints.System
	tr.do("constraints.build", func() { sys = constraints.Build(union, w.seed, w.copts) })
	w.refVars, w.refConstrs = sys.Problem.NumVars, len(sys.Problem.Constraints)
}

// verify checks one ingest against the single-process answer and that
// it ran warm.
func (w *ingestWarm) verify(in *ingested) error {
	switch {
	case in.delta.FellBack || in.delta.SpansReused != in.delta.Spans:
		return fmt.Errorf("ingest reused %d of %d flow blocks (fell back: %v)",
			in.delta.SpansReused, in.delta.Spans, in.delta.FellBack)
	case in.sys.Problem.NumVars != w.refVars || len(in.sys.Problem.Constraints) != w.refConstrs:
		return fmt.Errorf("ingest built %d vars / %d constraints, single-process build %d / %d",
			in.sys.Problem.NumVars, len(in.sys.Problem.Constraints), w.refVars, w.refConstrs)
	}
	return sameBytes("merged graph vs single-process union", in.mres.Graph.AppendBinary(nil), w.refGraph)
}

func (w *ingestWarm) measure(r *result, secs float64) {
	w.reference(nil)
	if _, err := w.ingest(nil); err != nil { // warm-up
		r.attempt(err)
		return
	}
	var lat sample
	for start := time.Now(); len(lat) == 0 || time.Since(start).Seconds() < secs; {
		runtime.GC()
		var in *ingested
		var err error
		lat = append(lat, int64(timed(func() { in, err = w.ingest(nil) })))
		if err == nil {
			err = w.verify(in)
		}
		r.attempt(err)
	}
	opMetrics(r, batchSlices(lat), 0.75)
}

func (w *ingestWarm) layers(r *result, tr *tracer) {
	w.reference(tr)
	const reps = 5
	var in *ingested
	for i := 0; i < reps; i++ {
		var err error
		if in, err = w.ingest(tr); err == nil {
			err = w.verify(in)
		}
		r.attempt(err)
		if err != nil {
			return
		}
	}
	traceOverhead(r, tr, reps, tr.durations("op.ingest"))

	// propgraph's share of the ingest, as twins: the union the merger
	// performs over the decoded slice graphs, and the graph codec over
	// the merged result.
	tr.do("propgraph.union", func() {
		ub := propgraph.NewUnionBuilder()
		for _, a := range w.arts {
			ub.Add(a.Graph)
		}
	})
	tr.do("propgraph.encode", func() { in.mres.Graph.AppendBinary(nil) })
	tr.do("propgraph.decode", func() {
		if _, _, err := propgraph.DecodeBinary(w.refGraph); err != nil {
			r.fail("propgraph.DecodeBinary of the merged graph: %v", err)
		}
	})

	lt := tr.layerTimes()
	r.set("shard.build_s", w.buildTime.Seconds())
	r.set("shard.encode_s", w.encTime.Seconds())
	r.set("shard.read_s", (lt["shard.read"].total).Seconds()/reps)
	r.set("shard.merge_s", (lt["shard.merge"].total).Seconds()/reps)
	r.set("shard.artifact_bytes", float64(in.mres.Bytes))
	r.set("shard.peak_bytes_ratio", float64(in.mres.PeakBytes)/float64(max(in.mres.Bytes, 1)))
	r.set("constraints.flowcache_load_s", (lt["constraints.flowcache_load"].total).Seconds()/reps)
	r.set("constraints.incr_build_s", (lt["constraints.build_incremental"].total).Seconds()/reps)
	r.set("constraints.spans_reused_ratio", float64(in.delta.SpansReused)/float64(max(in.delta.Spans, 1)))
	r.set("constraints.build_s", (lt["constraints.build"].total).Seconds())
	r.set("constraints.vars", float64(in.sys.Problem.NumVars))
	r.set("constraints.constraints", float64(len(in.sys.Problem.Constraints)))
	r.set("propgraph.union_s", (lt["propgraph.union"].total).Seconds())
	r.set("propgraph.encode_s", (lt["propgraph.encode"].total).Seconds())
	r.set("propgraph.decode_s", (lt["propgraph.decode"].total).Seconds())
	r.set("propgraph.encoded_bytes", float64(len(w.refGraph)))
	r.set("propgraph.symbols", float64(in.mres.Graph.Syms.Len()))

	w.fpcacheLayer(r, tr)
	harnessOverhead(r)
}

// fpcacheLayer prices the per-file analysis cache a coordinator seeds
// from shard sidecars: one entry per corpus file written to a fresh
// directory under the run's scratch space, then every entry read back.
func (w *ingestWarm) fpcacheLayer(r *result, tr *tracer) {
	cache, err := fpcache.Open(filepath.Join(w.cfg.tmp, "fpcache"))
	if err != nil {
		r.fail("fpcache.Open: %v", err)
		return
	}
	var written int64
	entries := 0
	for _, a := range w.arts {
		for i, meta := range a.Files {
			entry := &fpcache.Entry{Graph: a.FileGraphs[i], ParseError: meta.ParseError}
			tr.do("fpcache.put", func() {
				n, err := cache.Put(meta.Name, w.files[meta.Name], entry)
				if err != nil {
					r.fail("fpcache.Put %s: %v", meta.Name, err)
				}
				written += n
			})
			entries++
		}
	}
	for _, a := range w.arts {
		for _, meta := range a.Files {
			tr.do("fpcache.get", func() { cache.Get(meta.Name, w.files[meta.Name]) })
		}
	}
	st := cache.Stats()
	lt := tr.layerTimes()
	r.setNote("fpcache.put_s", (lt["fpcache.put"].total).Seconds(), "%d entries", entries)
	r.set("fpcache.get_s", (lt["fpcache.get"].total).Seconds())
	r.set("fpcache.hit_ratio", float64(st.Hits)/float64(max(st.Hits+st.Misses, 1)))
	r.set("fpcache.bytes", float64(written))
}
