package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// result collects what one workload run measured and checked.
type result struct {
	Workload  string
	Traced    bool
	Attempted int
	Failed    int

	values   map[string]float64
	notes    map[string]string // shown beside the value in the text rows
	failures []string          // failed output checks, fatal at exit
}

func newResult(workload string, traced bool) *result {
	return &result{Workload: workload, Traced: traced,
		values: make(map[string]float64), notes: make(map[string]string)}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) setNote(name string, v float64, format string, args ...any) {
	r.values[name] = v
	r.notes[name] = fmt.Sprintf(format, args...)
}

// na marks a metric this host cannot measure (a parallel speed-up with
// one processor): the text row says n/a, the JSON line carries 0.
func (r *result) na(name string) {
	r.values[name] = 0
	r.notes[name] = "n/a"
}

// attempt counts one operation; a non-nil err counts it as failed.
func (r *result) attempt(err error) {
	r.Attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

// fail records a failed operation or output check. Only the first few
// messages are kept; the count is exact.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// check validates the run against the metric list of its mode: nothing
// unlisted, every value finite, every end-to-end metric present and
// non-zero, every per-layer metric present unless the workload's idle
// list says the layer does no work there, in which case it reads 0.
func (r *result) check(spec *benchSpec) error {
	listed := make(map[string]bool)
	for _, m := range spec.metrics(r.Traced) {
		listed[m.Name] = true
		v, ok := r.values[m.Name]
		switch {
		case ok && r.Traced && isIdle(r.Workload, m.Name):
			return fmt.Errorf("workload %s set %s, which its idle list says it leaves alone", r.Workload, m.Name)
		case !ok && r.Traced && isIdle(r.Workload, m.Name):
			r.values[m.Name] = 0
		case !ok:
			return fmt.Errorf("workload %s did not emit %s", r.Workload, m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("workload %s: %s is %v", r.Workload, m.Name, v)
		case !r.Traced && v == 0:
			return fmt.Errorf("workload %s: end-to-end metric %s is 0", r.Workload, m.Name)
		}
	}
	for name := range r.values {
		if !listed[name] {
			return fmt.Errorf("workload %s emitted %s, which BENCHMARK.json does not list", r.Workload, name)
		}
	}
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the last line of a run's standard output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) json(spec *benchSpec) jsonResult {
	out := jsonResult{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]jsonMetric)}
	for _, m := range spec.metrics(r.Traced) {
		out.Metrics[m.Name] = jsonMetric{Value: r.values[m.Name], Unit: m.Unit}
	}
	return out
}

// print writes one row per metric (name, workload, value, unit, note)
// and then the JSON line.
func (r *result) print(w io.Writer, spec *benchSpec) error {
	for _, m := range spec.metrics(r.Traced) {
		val := fmt.Sprintf("%.6g", r.values[m.Name])
		if r.notes[m.Name] == "n/a" {
			val = "n/a"
		}
		fmt.Fprintf(w, "%-36s %-14s %14s %-6s %s\n", m.Name, r.Workload, val, m.Unit, r.notes[m.Name])
	}
	fmt.Fprintf(w, "%-36s %-14s %14s %-6s failed %d of %d attempted\n", "fail_ratio", r.Workload,
		fmt.Sprintf("%.6g", float64(r.Failed)/float64(max(r.Attempted, 1))), "ratio", r.Failed, r.Attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", f)
	}
	line, err := json.Marshal(r.json(spec))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// sample is a set of operation timings in nanoseconds.
type sample []int64

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rank is the index of quantile q in a sorted sample (nearest rank).
func (s sample) rank(q float64) int {
	return min(max(int(math.Ceil(q*float64(len(s))))-1, 0), len(s)-1)
}

// quantile reads q from an already sorted sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s[s.rank(q)])
}

func (s sample) median() float64 { return s.sorted().quantile(0.5) }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// slope is the least-squares slope of ln y over ln x: the exponent e in
// y ∝ x^e. Points with a non-positive coordinate are skipped.
func slope(xs, ys []float64) float64 {
	var n, sx, sy, sxx, sxy float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		n++
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	den := n*sxx - sx*sx
	if n < 2 || den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// timed runs f and returns how long it took.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}
