package shard

import (
	"fmt"
	"time"

	"seldon/internal/core"
	"seldon/internal/fpcache"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
)

// The worker side: analyze one corpus slice and assemble its artifact.
// Everything heavy is reused from the in-process pipeline — the parallel
// per-file front-end (core.AnalyzeFiles, including fpcache consultation
// through cfg.Cache), the symbol-translating graph union, and the obs
// stage timers — so a shard worker is the single-process front-end with
// an encoder where the learner used to be.

// Build analyzes an already-sliced corpus (files is slice i of n, cut by
// core.SliceFiles or core.SliceNames) and returns its artifact plus
// the front-end result for telemetry. The artifact's graph is the union
// of the slice's per-file graphs in sorted name order, carrying a
// per-shard symbol table. Each manifest entry is its file's record, which
// a coordinator sharing no disk with the worker seeds its cache from.
func Build(files map[string]string, i, n int, cfg core.Config) (*Artifact, *core.FrontEnd, error) {
	if n < 1 || i < 0 || i >= n {
		return nil, nil, fmt.Errorf("shard: slice %d of %d out of range", i, n)
	}
	t0 := time.Now()
	fe := core.AnalyzeFiles(files, cfg)
	g := propgraph.Union(fe.Graphs...)
	cfg.Metrics.ObserveDuration(obs.StageShardAnalyze, time.Since(t0))

	metas := make([]FileMeta, len(fe.Names))
	for j, name := range fe.Names {
		// The graph bytes are the section the artifact ships, so the
		// coordinator hashes the same bytes to the same span hash.
		metas[j] = newFileMeta(fe.Record(j, files[name]))
	}
	a := &Artifact{
		AnalyzerVersion: fpcache.AnalyzerVersion,
		Slice:           i,
		Slices:          n,
		Files:           metas,
		Graph:           g,
		FileGraphs:      fe.Graphs,
	}
	cfg.Metrics.Set(obs.GaugeShardFiles, float64(len(metas)))
	cfg.Metrics.Set(obs.GaugeShardSlices, float64(n))
	cfg.Log.Log("shard.build", "slice", i, "of", n, "files", len(metas),
		"events", len(g.Events))
	return a, fe, nil
}

// BuildFromCorpus slices the full corpus by sorted file name
// (core.SliceFiles) and builds slice i of n — the in-process convenience
// the tests and the benchmark use; a real worker reads only its slice and
// calls Build.
func BuildFromCorpus(files map[string]string, i, n int, cfg core.Config) (*Artifact, *core.FrontEnd, error) {
	return Build(core.SliceFiles(files, i, n), i, n, cfg)
}
