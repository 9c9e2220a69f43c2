package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// benchSpec is BENCHMARK.json: the one table of workloads, metrics,
// units, directions and regression bounds. The harness reads names and
// units from it rather than repeating them, so a metric the file does
// not list cannot be emitted and a listed one cannot be forgotten (see
// result.check and the idle table below).
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// exact reports whether the metric is a pure function of seed and corpus
// size: a count, a size in bytes, or a quality score of the eval layer.
// Such a metric has no noise, so its bound is 0. Counts that depend on
// how concurrent clients interleave or on the allocator carry another
// unit (n/run, allocs, B/op).
func (m metricSpec) exact() bool {
	return m.Unit == "count" || m.Unit == "bytes" || strings.HasPrefix(m.Name, "eval.")
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: needs workloads, end_to_end and per_layer", path)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metrics returns the list a run in the given mode must emit: the
// end-to-end metrics untraced, the per-layer metrics traced.
func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// idle lists, per workload, the per-layer metrics its traced run leaves
// unset because the layer does no such work there; they read 0. An entry
// ending in a dot stands for the whole layer. Any other listed metric a
// traced run fails to set is an error, so a dropped or misspelt r.set
// does not pass as a layer at rest.
var idle = map[string][]string{
	"learn_cold": {"constraints.incr_build_s", "constraints.spans_reused_ratio", "constraints.flowcache_load_s",
		"lp.warm_epochs", "incr.", "fpcache.", "shard.", "taint.", "service.", "checkcache."},
	"relearn_delta": {"pytoken.size_exponent", "pyparse.size_exponent", "dataflow.size_exponent",
		"core.frontend_wall_s", "core.frontend_speedup", "core.first_learn_s", "core.learn_allocs_per_file", "core.learn_alloc_mb",
		"propgraph.decode_s", "propgraph.encoded_bytes", "propgraph.union_scale_exponent",
		"constraints.build_s", "constraints.flowcache_load_s", "constraints.build_scale_exponent",
		"lp.epochs", "lp.minimize_scale_exponent", "specio.decode_s",
		"fpcache.", "shard.", "taint.", "service.", "checkcache."},
	"ingest_warm": {"pytoken.", "pyparse.", "dataflow.", "core.", "propgraph.union_scale_exponent",
		"constraints.build_scale_exponent", "lp.", "specio.", "incr.", "taint.", "service.", "checkcache.", "eval."},
	"check_miss": append([]string{"service.hit_self_ns"}, idleServing...),
	"check_dup":  append([]string{"pytoken.size_exponent", "pyparse.size_exponent", "dataflow.size_exponent"}, idleServing...),
}

// idleServing is what neither serving workload touches: no learning, no
// codecs, a one-file union only.
var idleServing = []string{"core.", "propgraph.symbols", "propgraph.encode_s", "propgraph.decode_s",
	"propgraph.encoded_bytes", "propgraph.union_scale_exponent", "constraints.", "lp.", "specio.", "incr.",
	"fpcache.", "shard.", "eval."}

func isIdle(workload, metric string) bool {
	for _, e := range idle[workload] {
		if e == metric || (strings.HasSuffix(e, ".") && strings.HasPrefix(metric, e)) {
			return true
		}
	}
	return false
}
