package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"seldon/internal/core"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/taint"
)

// check is `seldon check`: front-end, union, then the taint analyzer with
// a specification. Finding flows is errFindings, main's exit status 1, so
// that a script can tell them from a run that failed (2).
func check(args []string) error {
	fs := flag.NewFlagSet("seldon check", flag.ExitOnError)
	in, cf, of := addInputFlags(fs), addCacheFlags(fs), addObsFlags(fs)
	specFile := fs.String("spec", "", "specification file (o:/a:/i:/b: lines, as seldon learn -out writes); default: the paper's App. B seed")
	dedupe := fs.Bool("dedupe", false, "collapse reports sharing (source, sink) representations")
	fs.Parse(args)
	in.paths = fs.Args()

	ob, err := of.start()
	if err != nil {
		return err
	}
	sp := spec.Seed()
	if *specFile != "" {
		if sp, err = readSpec(*specFile); err != nil {
			return err
		}
	}
	files, err := in.files(0, 1)
	if err != nil {
		return err
	}
	cfg := core.Config{Workers: in.workers, Metrics: ob.reg, Log: ob.log}
	if cfg.Cache, err = cf.open(); err != nil {
		return err
	}
	fe := core.AnalyzeFiles(files, cfg)
	if cfg.Cache != nil {
		fmt.Fprintf(os.Stderr, "seldon check: cache: %d hits, %d misses, %d bytes, saved %s\n",
			fe.CacheHits, fe.CacheMisses, fe.CacheBytes, fe.CacheSaved.Round(time.Microsecond))
	}
	for _, perr := range fe.ParseErrs {
		fmt.Fprintf(os.Stderr, "seldon check: %v (continuing with recovered AST)\n", perr)
	}

	var union *propgraph.Graph
	core.RunStage(cfg, obs.StageUnion, func() { union = propgraph.Union(fe.Graphs...) })

	var reports []taint.Report
	core.RunStage(cfg, obs.StageTaint, func() { reports = taint.Analyze(union, sp) })
	if *dedupe {
		reports = taint.Dedupe(reports)
	}
	for i := range reports {
		r := &reports[i]
		fmt.Printf("%s:%s: [%s] %s -> %s (sink at %s)\n",
			r.File, r.SourcePos, r.Category, r.SourceRep, r.SinkRep, r.SinkPos)
		if of.verbose { // the witness path, indented under its report
			fmt.Println("    " + strings.ReplaceAll(strings.TrimRight(r.Trace(union), "\n"), "\n", "\n    "))
		}
	}
	s := taint.Summarize(reports)
	ob.reg.Add(obs.CounterTaintReports, int64(s.Total))
	fmt.Printf("\n%d reports in %d files\n", s.Total, s.Files)
	for _, c := range slices.Sorted(maps.Keys(s.ByCategory)) {
		fmt.Printf("  %-20s %d\n", c, s.ByCategory[c])
	}

	if err := ob.stop(); err != nil {
		return err
	}
	if s.Total > 0 {
		return errFindings
	}
	return nil
}
