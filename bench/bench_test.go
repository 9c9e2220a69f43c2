package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestSmoke runs every workload of BENCHMARK.json at toy size, untraced
// and traced, so tier-1 `go test ./...` exercises the whole harness. It
// checks the contract between the harness and the file: every metric the
// file lists for the mode is printed exactly once with its unit and a
// finite value, nothing else is, names are well formed, and every output
// check passes. runWorkload itself fails a traced run that leaves a
// metric unset outside the workload's idle list. Batch workloads run one timed repetition (-seconds 0) so
// the amount of work, and with it every check's verdict, does not depend
// on the machine's speed.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) is malformed or listed twice", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}

	for _, w := range spec.Workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 1, traced: traced, files: 120, store: 120,
				setups: 1, outDir: t.TempDir(), p: min(runtime.NumCPU(), 4)}
			if strings.HasPrefix(w.Name, "check_") {
				cfg.seconds = 0.2
			}
			var out bytes.Buffer
			res, err := runWorkload(spec, cfg, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if err := res.print(&out, spec); err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.Name, traced, res.Failed, res.Attempted, res.failures)
			}

			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w.Name, traced, err)
			}
			rows := make(map[string]int)
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) > 1 && f[1] == w.Name {
					rows[f[0]]++
				}
			}
			want := spec.metrics(traced)
			if len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the result, BENCHMARK.json lists %d", w.Name, traced, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing from the result", w.Name, traced, m.Name)
				case got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s = %v %q", w.Name, traced, m.Name, got.Value, got.Unit)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
				if rows[m.Name] != 1 {
					t.Errorf("%s traced=%v: %s printed %d times", w.Name, traced, m.Name, rows[m.Name])
				}
			}
		}
	}
}

// TestCompare checks the gate: a lower-is-better metric that rises past
// its bound breaches and a higher-is-better metric that rises does not;
// an exact metric may not worsen at all, nor differ at all between two
// sets of one commit; an unbounded per-layer timing never breaches; a
// pair the second file lacks and an incorrect run always do.
func TestCompare(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd: []metricSpec{{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1}},
		PerLayer: []metricSpec{{Name: "lp.epochs", Unit: "count", Better: "lower"},
			{Name: "eval.spec_recall", Unit: "ratio", Better: "higher"},
			{Name: "lp.minimize_s", Unit: "s", Better: "lower"}},
	}
	set := func(correct bool, v ...float64) *resultSet {
		names := []string{"lat", "rate", "lp.epochs", "eval.spec_recall", "lp.minimize_s"}
		m := make(map[string]jsonMetric)
		for i, x := range v {
			m[names[i]] = jsonMetric{Value: x}
		}
		return &resultSet{Runs: []setRun{{Workload: "w", jsonResult: jsonResult{Correct: correct, Attempted: 1, Metrics: m}}}}
	}
	base := set(true, 10, 100, 400, 0.8, 1)
	for _, c := range []struct {
		what       string
		b          *resultSet
		sameCommit bool
		breaches   int
	}{
		{"unchanged", set(true, 10, 100, 400, 0.8, 1), true, 0},
		{"within bounds", set(true, 10.9, 91, 400, 0.8, 1), false, 0},
		{"latency up", set(true, 11.5, 100, 400, 0.8, 1), false, 1},
		{"rate down", set(true, 10, 85, 400, 0.8, 1), false, 1},
		{"both better", set(true, 5, 200, 400, 0.8, 1), false, 0},
		{"layer timing doubles", set(true, 10, 100, 400, 0.8, 2), false, 0},
		{"recall drops", set(true, 10, 100, 400, 0.79, 1), false, 1},
		{"more epochs", set(true, 10, 100, 401, 0.8, 1), false, 1},
		{"fewer epochs, other commit", set(true, 10, 100, 399, 0.8, 1), false, 0},
		{"fewer epochs, same commit", set(true, 10, 100, 399, 0.8, 1), true, 1},
		{"metric missing", set(true, 10, 100, 400), false, 2},
		{"incorrect", set(false, 10, 100, 400, 0.8, 1), false, 1},
	} {
		var out bytes.Buffer
		if got := compareSets(spec, base, c.b, c.sameCommit, &out); got != c.breaches {
			t.Errorf("%s: %d breaches, want %d\n%s", c.what, got, c.breaches, out.String())
		}
	}
}
