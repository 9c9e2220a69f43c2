package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"seldon/internal/core"
	"seldon/internal/obs"
	"seldon/internal/shard"
)

// shardWorker is `seldon shard`, the distributed-learning worker: it
// analyzes one contiguous slice of the corpus's sorted file names (parse +
// dataflow + per-slice union, with the parallel front-end and the fpcache)
// and writes one artifact — manifest plus per-file graphs in the wire
// format — to a file or stdout. Workers for different slices may run
// anywhere, in any order, and may share a -cache-dir.
func shardWorker(args []string) error {
	fs := flag.NewFlagSet("seldon shard", flag.ExitOnError)
	in, cache, of := addInputFlags(fs), addCacheFlags(fs), addObsFlags(fs)
	slices := fs.Int("slices", 1, "total number of corpus slices")
	slice := fs.Int("slice", 0, "this worker's slice index (0-based)")
	out := fs.String("o", "-", "artifact output path (\"-\" = stdout)")
	shipCache := addShipCacheFlag(fs)
	fs.Parse(args)

	ob, err := of.start()
	if err != nil {
		return err
	}
	cfg := core.Config{Workers: in.workers, Metrics: ob.reg, Log: ob.log}
	if cfg.Cache, err = cache.open(); err != nil {
		return err
	}
	files, err := in.files(*slice, *slices)
	if err != nil {
		return err
	}
	art, fe, err := shard.Build(files, *slice, *slices, cfg)
	if err != nil {
		return err
	}
	if *shipCache {
		art.AttachSidecar(files, fe)
	}

	t0 := time.Now()
	var written int64
	dest := *out
	if dest == "-" {
		dest = "stdout"
		written, err = shard.Write(os.Stdout, art)
	} else {
		written, err = shard.WriteFile(dest, art)
	}
	if err != nil {
		return err
	}
	ob.reg.ObserveDuration(obs.StageShardEncode, time.Since(t0))
	ob.reg.Set(obs.GaugeShardBytes, float64(written))

	errNote := ""
	if n := len(fe.ParseErrorFiles); n > 0 {
		errNote = fmt.Sprintf(", %d parse errors", n)
	}
	fmt.Fprintf(os.Stderr, "seldon shard: slice %d/%d: %d files%s, %d events, %d bytes to %s\n",
		*slice, *slices, len(art.Files), errNote, len(art.Graph.Events), written, dest)
	return ob.stop()
}
