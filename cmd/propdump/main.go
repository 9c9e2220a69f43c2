// Command propdump extracts propagation graphs from Python files and
// writes them as JSON, separating the paper pipeline's extraction phase
// from the learning phase (parse once, learn many times).
//
// Usage:
//
//	propdump -dir path/to/repo -out graphs.json    # one union graph
//	propdump file.py                               # single file to stdout
//	propdump -binary -dir repo -out graphs.pg      # v2 binary codec
//
// -binary emits the compact propgraph binary encoding (the same codec
// shard artifacts and the fpcache use) instead of JSON; decode it with
// propgraph.DecodeBinary.
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"seldon/internal/core"
	"seldon/internal/propgraph"
)

func main() {
	var (
		dir    = flag.String("dir", "", "directory to scan for .py files")
		out    = flag.String("out", "", "output file (default stdout)")
		binary = flag.Bool("binary", false, "write the propgraph v2 binary codec instead of JSON")
	)
	flag.Parse()

	paths := flag.Args()
	if *dir != "" {
		err := filepath.WalkDir(*dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".py") {
				paths = append(paths, path)
			}
			return err
		})
		if err != nil {
			fatal(err)
		}
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "propdump: no input files")
		os.Exit(2)
	}
	sort.Strings(paths)
	paths = slices.Compact(paths) // a file named twice is one file

	files := make(map[string]string, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		files[path] = string(data)
	}
	fe := core.AnalyzeFiles(files, core.Config{})
	for _, perr := range fe.ParseErrs {
		fmt.Fprintf(os.Stderr, "propdump: %v (continuing)\n", perr)
	}
	union := propgraph.Union(fe.Graphs...)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := writeGraph(w, union, *binary); err != nil {
		fatal(err)
	}
	st := union.ComputeStats()
	fmt.Fprintf(os.Stderr, "propdump: %d files, %d events (%d candidates), %d edges\n",
		len(paths), st.Events, st.Candidates, st.Edges)
}

// writeGraph renders the union graph to w: the propgraph v2 binary
// codec (decode with propgraph.DecodeBinary) or the JSON encoding.
func writeGraph(w io.Writer, g *propgraph.Graph, binary bool) error {
	if binary {
		_, err := w.Write(g.AppendBinary(nil))
		return err
	}
	return g.Encode(w)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "propdump:", err)
	os.Exit(1)
}
