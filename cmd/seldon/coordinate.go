package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"seldon/internal/constraints"
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
	flowCache := fs.String("flowcache", "", "persistent flow-constraint block cache file (loaded before the build, saved after; stale or corrupt files load as empty)")
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
	// artifact sidecars are ingested.
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

	// The constraint build takes the merge's file spans and a flow-block
	// cache: the -flowcache file's, loaded and saved back, or an empty one
	// nobody keeps. Reuse is fingerprint-gated, so the system is the full
	// build's byte for byte either way.
	copts := cfg.ConstraintOptions()
	fc, warm := constraints.NewFlowCache(), false
	if *flowCache != "" {
		fc, warm = constraints.LoadFlowCache(*flowCache, copts)
	}
	var (
		sys   *constraints.System
		delta constraints.DeltaStats
	)
	core.RunStage(cfg, obs.StageConstraints, func() {
		sys, delta = constraints.BuildIncremental(mres.Graph, seedSpec, copts, mres.Spans, fc)
	})
	res := core.LearnPrepared(mres.Graph, sys, cfg)
	res.ParseErrorFiles = fpcache.ParseErrorFiles(slices.Values(mres.Files))
	if *flowCache != "" {
		cfg.Log.Log("flowcache", "path", *flowCache, "warm", warm,
			"spans", delta.Spans, "reused", delta.SpansReused, "rebuilt", delta.SpansRebuilt)
		if err := fc.Save(*flowCache, copts); err != nil {
			// The run's result is already in hand; a failed save only costs
			// the next run its warm start.
			fmt.Fprintln(os.Stderr, "seldon: flowcache save:", err)
		}
	}

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
