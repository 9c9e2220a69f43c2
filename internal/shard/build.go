package shard

import (
	"crypto/sha256"
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
// per-shard symbol table.
func Build(files map[string]string, i, n int, cfg core.Config) (*Artifact, *core.FrontEnd, error) {
	if n < 1 || i < 0 || i >= n {
		return nil, nil, fmt.Errorf("shard: slice %d of %d out of range", i, n)
	}
	t0 := time.Now()
	fe := core.AnalyzeFiles(files, cfg)
	g := propgraph.Union(fe.Graphs...)
	cfg.Metrics.ObserveDuration(obs.StageShardAnalyze, time.Since(t0))

	perr := make(map[string]string, len(fe.ParseErrorFiles))
	for j, name := range fe.ParseErrorFiles {
		perr[name] = fe.ParseErrs[j].Error()
	}
	metas := make([]FileMeta, len(fe.Names))
	hashes := make([][32]byte, len(fe.Names))
	events := make([]int, len(fe.Names))
	var encBuf []byte
	for j, name := range fe.Names {
		metas[j] = FileMeta{
			Name:       name,
			SHA256:     sha256.Sum256([]byte(files[name])),
			ParseError: perr[name],
		}
		// The span hash is over the file graph's binary encoding — the
		// same bytes the artifact ships as this file's graph section, so
		// the coordinator recomputes the identical hash.
		encBuf = fe.Graphs[j].AppendBinary(encBuf[:0])
		hashes[j] = sha256.Sum256(encBuf)
		events[j] = len(fe.Graphs[j].Events)
	}
	a := &Artifact{
		AnalyzerVersion: fpcache.AnalyzerVersion,
		Slice:           i,
		Slices:          n,
		Files:           metas,
		Graph:           g,
		FileGraphs:      fe.Graphs,
		FileHashes:      hashes,
		FileEvents:      events,
	}
	cfg.Metrics.Set(obs.GaugeShardFiles, float64(len(metas)))
	cfg.Metrics.Set(obs.GaugeShardSlices, float64(n))
	cfg.Log.Log("shard.build", "slice", i, "of", n, "files", len(metas),
		"events", len(g.Events))
	return a, fe, nil
}

// AttachSidecar equips the artifact with the fpcache sidecar: each
// file's content-addressed cache key (fpcache.KeyBytes over the same
// corpus content Build analyzed) and its recorded analysis cost from
// the front-end. A coordinator ingesting the artifact can then seed its
// own fpcache with the worker's results — shipping the warmth with the
// graph instead of re-analyzing to recreate it.
func (a *Artifact) AttachSidecar(files map[string]string, fe *core.FrontEnd) {
	keys := make([][32]byte, len(a.Files))
	costs := make([]time.Duration, len(a.Files))
	for j := range a.Files {
		name := a.Files[j].Name
		keys[j] = fpcache.KeyBytes(name, files[name])
		if j < len(fe.Costs) {
			costs[j] = fe.Costs[j]
		}
	}
	a.SidecarKeys = keys
	a.SidecarCosts = costs
	a.Sidecar = true
}

// BuildFromCorpus slices the full corpus by sorted file name
// (core.SliceFiles) and builds slice i of n — the in-process convenience
// the tests and single-box executor paths use; a real worker reads only
// its slice and calls Build.
func BuildFromCorpus(files map[string]string, i, n int, cfg core.Config) (*Artifact, *core.FrontEnd, error) {
	return Build(core.SliceFiles(files, i, n), i, n, cfg)
}
