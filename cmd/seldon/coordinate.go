package main

import (
	"errors"
	"flag"
	"fmt"
	"path/filepath"
	"slices"
	"sort"

	"seldon/internal/core"
	"seldon/internal/fpcache"
	"seldon/internal/obs"
	"seldon/internal/shard"
)

// coordinate is `seldon coordinate`: gather the shard artifacts a glob
// names, merge them in slice order, and learn once over the global graph.
// Each artifact is read whole, its frame verified, its sections cut and
// their graphs decoded on every processor, then appended to the union —
// their one copy — and released, so peak coordinator memory is one
// artifact. The result is what `seldon learn` over the concatenated corpus
// produces, with the gather's time at the head of the stage breakdown.
func coordinate(args []string) error {
	fs := flag.NewFlagSet("seldon coordinate", flag.ExitOnError)
	workers, lf, out, cache, of := addWorkersFlag(fs), addLearnFlags(fs), addOutputFlags(fs), addCacheFlags(fs), addObsFlags(fs)
	shardsIn := fs.String("shards-in", "", "glob of shard artifacts (from seldon shard) to merge and learn from")
	fs.Parse(args)
	if err := noArgs(fs); err != nil {
		return err
	}

	r, err := startLearnRun("seldon.coordinate", *workers, lf, of)
	if err != nil {
		return err
	}
	cfg := r.cfg
	seedSpec, err := lf.seed(false)
	if err != nil {
		return err
	}
	if *shardsIn == "" {
		return errors.New("need -shards-in (see -h)")
	}
	paths, err := filepath.Glob(*shardsIn)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no shard artifacts match %q", *shardsIn)
	}
	sort.Strings(paths)
	// A coordinator never runs the front-end itself: its cache is where
	// the artifacts' records are ingested.
	ingest, err := cache.open()
	if err != nil {
		return err
	}
	ropts := shard.ReadOptions{Cache: ingest, Metrics: cfg.Metrics, Log: cfg.Log}
	mopts := shard.MergeOptions{Metrics: cfg.Metrics, Log: cfg.Log}
	var mres *shard.MergeResult
	core.RunStage(cfg, obs.StageShardDecode, func() {
		mres, err = readShards(paths, ropts, mopts)
	})
	if err != nil {
		return err
	}

	res := core.Learn(mres.Graph, seedSpec, cfg)
	res.ParseErrorFiles = fpcache.ParseErrorFiles(slices.Values(mres.Files))

	summary := fmt.Sprintf("coordinated %d shards: %d files", mres.Slices, len(mres.Files))
	return r.finish(res, seedSpec, summary, len(mres.Files), mres.CorpusFingerprint, out)
}

// readShards reads the artifact files into one merge, in the order given;
// a fault, the decoder's or the merge's, names the file it came from.
func readShards(paths []string, ropts shard.ReadOptions, mopts shard.MergeOptions) (*shard.MergeResult, error) {
	m := shard.NewMerger(mopts)
	for _, p := range paths {
		a, err := shard.ReadFile(p, ropts)
		if err != nil {
			return nil, err
		}
		ropts.Log.Log("shard.read", "path", p, "slice", a.Slice, "of", a.Slices, "bytes", a.Size)
		if err := m.Commit(a); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return m.Finish()
}
