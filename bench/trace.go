package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside the program. Start and End are nanoseconds since the tracer
// was made; Parent indexes the enclosing span (-1 for an operation's
// root); Op numbers the operation the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. It serves one
// goroutine: traced operations are replayed sequentially. A nil tracer
// records nothing and reads no clock, so the untraced run times the same
// code without the recording.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
	op    int
}

// newTracer reserves room for the spans of a typical run up front, so
// recording seldom stops to grow the slice in the middle of a timed call.
func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// do runs f inside a span called name.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	f()
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// operation runs f as one traced operation under a root span.
func (t *tracer) operation(name string, f func()) {
	if t != nil {
		t.op++
	}
	t.do(name, f)
}

// layerTimes sums, per span name, total duration and self time (duration
// minus the part covered by child spans), and counts the spans.
type layerTime struct {
	total, self time.Duration
	n           int
}

func (t *tracer) layerTimes() map[string]layerTime {
	out := make(map[string]layerTime)
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		lt := out[s.Name]
		d := s.End - s.Start
		lt.total += time.Duration(d)
		lt.self += time.Duration(d - child[i])
		lt.n++
		out[s.Name] = lt
	}
	return out
}

// durations lists how long each span of the given name took.
func (t *tracer) durations(name string) (out sample) {
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// perOp sums, per operation, the durations of the spans with the given
// names.
func (t *tracer) perOp(names ...string) map[int]int64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[int]int64)
	for _, s := range t.spans {
		if want[s.Name] {
			out[s.Op] += s.End - s.Start
		}
	}
	return out
}

type traceFile struct {
	Host     hostFacts `json:"host"`
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Spans    []span    `json:"spans"`
}

func (t *tracer) write(dir string, host hostFacts, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(traceFile{Host: host, Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, os.WriteFile(path, data, 0o644)
}
