package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/obs"
	"seldon/internal/shard"
)

// coordinate is `seldon coordinate`: gather shard artifacts — a glob of
// files, or N `seldon shard` subprocesses of this binary over pipes —
// merge them in slice order, and learn once over the global graph.
// Ingestion is pipelined: each artifact is read whole, its frame verified,
// its sections cut and their graphs decoded on every processor, then
// appended to the union — their one copy — the moment its slice-order
// turn comes, and released, so decode overlaps worker execution and peak
// coordinator memory is one artifact. The result is what `seldon learn`
// over the concatenated corpus produces, with the gather and merge
// timings ahead of the stage breakdown.
func coordinate(args []string) error {
	fs := flag.NewFlagSet("seldon coordinate", flag.ExitOnError)
	in, lf, out, cache, of := addInputFlags(fs), addLearnFlags(fs), addOutputFlags(fs), addCacheFlags(fs), addObsFlags(fs)
	shardsIn := fs.String("shards-in", "", "glob of shard artifacts (from seldon shard) to merge and learn from")
	execShards := fs.Int("exec-shards", 0, "spawn N local `seldon shard` subprocesses over -dir/-generate and merge their artifacts; -cache-dir is shared with them")
	shipCache := addShipCacheFlag(fs)
	flowCache := fs.String("flowcache", "", "persistent flow-constraint block cache file (loaded before the build, saved after; stale or corrupt files load as empty)")
	fs.Parse(args)

	if *shipCache && *execShards <= 0 {
		return errors.New("-ship-cache requires -exec-shards (pre-produced -shards-in artifacts carry sidecars or not; -cache-dir ingests them either way)")
	}
	r, err := startLearnRun("seldon.coordinate", in, lf, of)
	if err != nil {
		return err
	}
	cfg := r.cfg
	seedSpec, err := lf.seed(in)
	if err != nil {
		return err
	}
	// A coordinator never runs the front-end itself: the cache is where
	// artifact sidecars are ingested, and with -exec-shards its directory
	// is the workers' too.
	ingest, err := cache.open()
	if err != nil {
		return err
	}
	mopts := shard.MergeOptions{Metrics: cfg.Metrics, Log: cfg.Log}

	var (
		mres   *shard.MergeResult
		gather core.StageTiming
	)
	switch {
	case *shardsIn != "":
		paths, globErr := filepath.Glob(*shardsIn)
		if globErr != nil {
			return globErr
		}
		if len(paths) == 0 {
			return fmt.Errorf("no shard artifacts match %q", *shardsIn)
		}
		sort.Strings(paths)
		ropts := shard.ReadOptions{Cache: ingest, Metrics: cfg.Metrics, Log: cfg.Log}
		gather = core.RunStage(cfg, obs.StageShardDecode, func() {
			mres, err = readShards(paths, ropts, mopts)
		})
	case *execShards > 0:
		bin, exeErr := os.Executable()
		if exeErr != nil {
			return exeErr
		}
		gather = core.RunStage(cfg, obs.StageShardExec, func() {
			mres, err = shard.ExecMerge(shard.ExecConfig{
				Bin: bin, Slices: *execShards,
				Dir: in.dir, Generate: in.generate,
				Workers: in.workers, CacheDir: cache.dir,
				ShipCache: *shipCache, Ingest: ingest,
				Metrics: cfg.Metrics,
			}, mopts)
		})
	default:
		return errors.New("need -shards-in or -exec-shards (see -h)")
	}
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
	build := core.RunStage(cfg, obs.StageConstraints, func() {
		sys, delta = constraints.BuildIncremental(mres.Graph, seedSpec, copts, mres.Spans, fc)
	})
	res := core.LearnPrepared(mres.Graph, sys, cfg)
	res.Stages = append([]core.StageTiming{
		gather,
		{Name: obs.TimerShardMerge, Duration: mres.MergeWall},
		build,
	}, res.Stages...)
	res.ParseErrors = mres.ParseErrors
	res.ParseErrorFiles = mres.ParseErrorFiles
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
