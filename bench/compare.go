package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// resultSet is a result file: the host that produced it and one entry
// per run, untraced (end-to-end metrics) or traced (per-layer metrics).
// A file may hold several runs of a workload; -compare takes the median
// of each metric over them.
type resultSet struct {
	Host hostFacts `json:"host"`
	Runs []setRun  `json:"runs"`
}

type setRun struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	jsonResult
}

func writeSet(path string, set *resultSet, stderr io.Writer) int {
	if path == "" {
		return 0
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// runSet runs every workload of the benchmark twice, untraced and
// traced, each run in a child process of this binary so none inherits
// another's heap, and gathers the JSON line each prints last. The traced
// runs are what put the exact numbers (learned-spec quality, counts,
// sizes) into the file for -compare to hold still.
func runSet(spec *benchSpec, cfg config, stdout, stderr io.Writer) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &resultSet{Host: facts(cfg)}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			cmd := exec.Command(self, "-workload", w.Name, "-trace", trace,
				"-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-files", strconv.Itoa(cfg.files))
			cmd.Stdout = io.MultiWriter(&out, stdout)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("workload %s (trace %s): %w", w.Name, trace, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			run := setRun{Workload: w.Name, Traced: trace == "1"}
			if err := json.Unmarshal(lines[len(lines)-1], &run.jsonResult); err != nil {
				return nil, fmt.Errorf("workload %s (trace %s): last output line is not a result: %w", w.Name, trace, err)
			}
			set.Runs = append(set.Runs, run)
		}
	}
	return set, nil
}

// medians reduces a result file to workload → metric → median value.
func (set *resultSet) medians() map[string]map[string]float64 {
	vals := make(map[string]map[string][]float64)
	for _, run := range set.Runs {
		if vals[run.Workload] == nil {
			vals[run.Workload] = make(map[string][]float64)
		}
		for name, m := range run.Metrics {
			vals[run.Workload][name] = append(vals[run.Workload][name], m.Value)
		}
	}
	out := make(map[string]map[string]float64)
	for w, ms := range vals {
		out[w] = make(map[string]float64)
		for name, v := range ms {
			out[w][name] = medianFloat(v)
		}
	}
	return out
}

// compareSets prints, per (metric, workload), the relative change from
// a to b in the metric's own direction and counts the breaches: an
// end-to-end metric worse by more than its bound, an exact metric (see
// metricSpec.exact) worse at all, a pair a has and b lacks, a run of b
// that failed a check. With sameCommit, a and b are two sets of one
// commit and an exact metric may not differ in either direction. The
// other per-layer metrics are listed without a gate: they explain a
// change, they do not judge it.
func compareSets(spec *benchSpec, a, b *resultSet, sameCommit bool, out io.Writer) (breaches int) {
	fmt.Fprintf(out, "A: %s\nB: %s\n", a.Host, b.Host)
	fmt.Fprintf(out, "%-36s %-14s %14s %14s %9s %7s\n", "metric", "workload", "A", "B", "worse by", "bound")
	ma, mb := a.medians(), b.medians()
	row := func(m metricSpec, w string, endToEnd bool) {
		va, okA := ma[w][m.Name]
		vb, okB := mb[w][m.Name]
		if !okA {
			return
		}
		if !okB {
			fmt.Fprintf(out, "%-36s %-14s %14.6g %14s  BREACH\n", m.Name, w, va, "missing")
			breaches++
			return
		}
		// Metrics are never negative; a change from 0 is infinitely large.
		diff := vb - va
		if m.Better == "higher" {
			diff = -diff
		}
		worse := 0.0
		if va != 0 {
			worse = diff / va
		} else if diff != 0 {
			worse = math.Copysign(math.Inf(1), diff)
		}
		verdict, bound := "", "-"
		switch {
		case m.exact():
			bound = "exact"
			if vb != va && (sameCommit || worse > 0) {
				verdict = "  BREACH"
			}
		case endToEnd:
			bound = fmt.Sprintf("%.0f%%", m.Bound*100)
			if worse > m.Bound {
				verdict = "  BREACH"
			}
		}
		if verdict != "" {
			breaches++
		}
		fmt.Fprintf(out, "%-36s %-14s %14.6g %14.6g %+8.1f%% %7s%s\n", m.Name, w, va, vb, worse*100, bound, verdict)
	}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			row(m, w.Name, true)
		}
		for _, m := range spec.PerLayer {
			row(m, w.Name, false)
		}
	}
	for _, run := range b.Runs {
		if !run.Correct {
			fmt.Fprintf(out, "B: workload %s failed %d of %d operations or checks  BREACH\n", run.Workload, run.Failed, run.Attempted)
			breaches++
		}
	}
	return breaches
}

func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]*resultSet
	for i, path := range []string{pathA, pathB} {
		set, err := readSet(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sets[i] = set
	}
	// Exact metrics are exact for one seed at one size, and every bound
	// was measured at one size: two files that differ there do not compare.
	if a, b := sets[0].Host, sets[1].Host; a.Seed != b.Seed || a.Files != b.Files {
		fmt.Fprintf(stderr, "bench: %s has seed %d, %d files; %s has seed %d, %d files\n", pathA, a.Seed, a.Files, pathB, b.Seed, b.Files)
		return 2
	}
	if n := compareSets(spec, sets[0], sets[1], false, stdout); n > 0 {
		fmt.Fprintf(stderr, "bench: %d regression(s) beyond the bounds in BENCHMARK.json\n", n)
		return 1
	}
	return 0
}

// selfCheck runs the full set twice on this commit and compares the
// second to the first: the benchmark's own noise must fit inside its
// own bounds, or no bound means anything.
func selfCheck(spec *benchSpec, cfg config, stdout, stderr io.Writer) int {
	var sets [2]*resultSet
	for i := range sets {
		set, err := runSet(spec, cfg, io.Discard, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		sets[i] = set
	}
	if n := compareSets(spec, sets[0], sets[1], true, stdout); n > 0 {
		fmt.Fprintf(stderr, "bench: two sets of the same commit disagree beyond the bounds (%d)\n", n)
		return 1
	}
	return 0
}
