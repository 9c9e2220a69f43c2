package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"seldon/internal/core"
	"seldon/internal/propgraph"
)

// graph is `seldon graph`: the pipeline's extraction phase on its own,
// front-end and union, written as JSON or — -binary — in the v2 codec
// shard artifacts and the fpcache use.
func graph(args []string) error {
	fs := flag.NewFlagSet("seldon graph", flag.ExitOnError)
	in := addInputFlags(fs)
	out := fs.String("o", "", "output file (default stdout)")
	binary := fs.Bool("binary", false, "write the propgraph v2 binary codec instead of JSON")
	fs.Parse(args)
	in.paths = fs.Args()

	files, err := in.files(0, 1)
	if err != nil {
		return err
	}
	fe := core.AnalyzeFiles(files, core.Config{Workers: in.workers})
	for _, perr := range fe.ParseErrs {
		fmt.Fprintf(os.Stderr, "seldon graph: %v (continuing)\n", perr)
	}
	union := propgraph.Union(fe.Graphs...)

	data, err := encodeGraph(union, *binary)
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		return err
	}
	st := union.ComputeStats()
	fmt.Fprintf(os.Stderr, "seldon graph: %d files, %d events (%d candidates), %d edges\n",
		len(files), st.Events, st.Candidates, st.Edges)
	return nil
}

// encodeGraph renders the union graph: the propgraph v2 binary codec
// (decode with propgraph.DecodeBinary) or the JSON encoding.
func encodeGraph(g *propgraph.Graph, binary bool) ([]byte, error) {
	if binary {
		return g.AppendBinary(nil), nil
	}
	var b bytes.Buffer
	err := g.Encode(&b)
	return b.Bytes(), err
}
