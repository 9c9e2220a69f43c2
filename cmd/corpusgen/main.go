// Command corpusgen writes a synthetic labeled Python web-application
// corpus to a directory, together with its ground-truth flow records and
// the experiment seed specification.
//
// Usage:
//
//	corpusgen -out /tmp/corpus -files 400 -seed 1
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"seldon/internal/corpus"
)

func main() {
	var (
		out   = flag.String("out", "corpus-out", "output directory")
		files = flag.Int("files", 400, "number of files")
		seed  = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	c := corpus.Generate(corpus.Config{Files: *files, Seed: *seed})
	for _, f := range c.Files {
		path := filepath.Join(*out, f.Name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, []byte(f.Source), 0o644); err != nil {
			fatal(err)
		}
	}

	// Ground truth: one line per generated flow.
	var flows []byte
	for _, fl := range c.Flows {
		flows = append(flows, fmt.Sprintf("%s\t%s\t%s\t%s\tsanitized=%t\texploitable=%t\twrongparam=%t\tclass=%s\n",
			fl.File, fl.SourceRep, fl.SanitizerRep, fl.SinkRep,
			fl.Sanitized, fl.Exploitable, fl.WrongParam, fl.Class)...)
	}
	if err := os.WriteFile(filepath.Join(*out, "FLOWS.tsv"), flows, 0o644); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(*out, "seed.spec"),
		[]byte(corpus.ExperimentSeed().Format()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d files, %d flows, and seed.spec to %s\n",
		len(c.Files), len(c.Flows), *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corpusgen:", err)
	os.Exit(1)
}
