package propgraph

import (
	"encoding/json"
	"io"
)

// The JSON encoding is a dump for reading, written by seldon graph; nothing
// reads it back. Extraction and learning run as separate processes through
// the v2 binary codec (binary.go) that shard artifacts carry.

// jsonGraph is the dump's shape.
type jsonGraph struct {
	Version int         `json:"version"`
	Events  []jsonEvent `json:"events"`
	Edges   []jsonEdge  `json:"edges"`
}

type jsonEvent struct {
	Kind  int      `json:"kind"`
	File  string   `json:"file,omitempty"`
	Line  int      `json:"line,omitempty"`
	Col   int      `json:"col,omitempty"`
	Reps  []string `json:"reps,omitempty"`
	Roles uint8    `json:"roles"`
}

type jsonEdge struct {
	Src  int   `json:"s"`
	Dst  int   `json:"d"`
	Args []int `json:"a,omitempty"`
}

const encodingVersion = 1

// Encode writes the graph as one line of JSON: the events in ID order, then
// every edge with its argument labels.
func (g *Graph) Encode(w io.Writer) error {
	jg := jsonGraph{Version: encodingVersion}
	for id, e := range g.Events {
		jg.Events = append(jg.Events, jsonEvent{
			Kind: int(e.Kind), File: g.File(id),
			Line: e.Pos.Line, Col: e.Pos.Col,
			Reps: g.Reps(id), Roles: uint8(e.Roles),
		})
	}
	for src := range g.Events {
		for _, dst := range g.Succs(src) {
			jg.Edges = append(jg.Edges, jsonEdge{
				Src: src, Dst: dst, Args: g.EdgeArgs(src, dst),
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jg)
}
