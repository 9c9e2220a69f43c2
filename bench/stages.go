package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/dataflow"
	"seldon/internal/eval"
	"seldon/internal/lp"
	"seldon/internal/propgraph"
	"seldon/internal/pyast"
	"seldon/internal/pyparse"
	"seldon/internal/pytoken"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

// This file holds the calls into the program's layers that more than
// one workload makes, each wrapped in a span named after the layer's
// package. The spans come from the harness: nothing inside the program
// is instrumented.

func sortedNames(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// encodeStore renders a learned specification the way `seldon -o` does:
// the store bytes are the output every learning workload is checked on.
func encodeStore(learned, seed *spec.Spec, files, events int) []byte {
	var buf bytes.Buffer
	meta := specio.Meta{CorpusFiles: files, Events: events, SeedEntries: seed.Len(),
		LearnedEntries: learned.Len() - seed.Len(), Generator: "seldon-bench"}
	if err := specio.Encode(&buf, learned, meta); err != nil {
		panic(err) // a bytes.Buffer cannot fail and the store is plain data
	}
	return buf.Bytes()
}

// learnStore is the batch learn exactly as a user runs it: sources in,
// encoded store out.
func learnStore(files map[string]string, seed *spec.Spec, cfg core.Config) ([]byte, *core.Result) {
	res := core.LearnFromSources(files, seed, cfg)
	return encodeStore(res.LearnedSpec(seed), seed, len(files), len(res.Graph.Events)), res
}

// constraintOpts is the constraint configuration core.Learn derives
// from a pipeline configuration: the same knobs, core's worker count.
func constraintOpts(cfg core.Config) constraints.Options {
	opts := cfg.Constraints
	opts.Workers = cfg.Workers
	return opts
}

func sameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	return fmt.Errorf("%s: output differs (sha256 %x, want %x)", what,
		sha256.Sum256(got), sha256.Sum256(want))
}

// frontCounts is the work the per-file front-end did, counted at the
// layer boundaries.
type frontCounts struct {
	files, bytes, tokens, nodes, parseErrs, events, edges int
}

// stageFile runs one source file through lex, parse and dataflow as
// three separate calls. pyparse.Parse scans the text itself, so the
// pytoken span is a twin of work done again inside the pyparse span;
// pyparse's own time is the difference.
func stageFile(tr *tracer, name, src string, fc *frontCounts) (*propgraph.Graph, error) {
	var toks []pytoken.Token
	tr.do("pytoken.scan", func() { toks, _ = pytoken.ScanAll(name, src) })
	var mod *pyast.Module
	var perr error
	tr.do("pyparse.parse", func() { mod, perr = pyparse.Parse(name, src) })
	var g *propgraph.Graph
	tr.do("dataflow.analyze", func() { g = dataflow.AnalyzeModule(mod, dataflow.Options{}) })
	fc.files++
	fc.bytes += len(src)
	fc.tokens += len(toks)
	pyast.Inspect(mod, func(pyast.Node) bool { fc.nodes++; return true })
	if perr != nil {
		fc.parseErrs++
	}
	fc.events += len(g.Events)
	fc.edges += g.NumEdges()
	return g, perr
}

// frontMetrics reports the three front-end layers from the spans of ops
// recorded operations.
func frontMetrics(r *result, lt map[string]layerTime, fc frontCounts, ops int) {
	n := float64(max(ops, 1))
	scan, parse := lt["pytoken.scan"].total, lt["pyparse.parse"].total
	r.set("pytoken.scan_s", scan.Seconds()/n)
	r.set("pytoken.tokens", float64(fc.tokens)/n)
	if scan > 0 {
		r.set("pytoken.mb_per_s", float64(fc.bytes)/1e6/scan.Seconds())
	}
	r.set("pyparse.parse_self_s", (parse-scan).Seconds()/n)
	r.set("pyparse.nodes", float64(fc.nodes)/n)
	r.set("pyparse.errors", float64(fc.parseErrs)/n)
	r.set("dataflow.analyze_s", (lt["dataflow.analyze"].total).Seconds()/n)
	r.set("dataflow.events", float64(fc.events)/n)
	r.set("dataflow.edges", float64(fc.edges)/n)
}

// sizeExponents fits, per front-end layer, the exponent e in
// time ∝ bytes^e over inputs made of 1, 4 and 16 copies of a sample of
// corpus files: 1 is linear, more means long inputs cost extra per byte.
// Each point is the fastest of five calls, which is what the layer can
// do rather than what the scheduler allowed.
func sizeExponents(r *result, sources []string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var sample []string
	for i := 0; i < 12; i++ {
		sample = append(sample, sources[rng.Intn(len(sources))])
	}
	var size, scan, parse, flow []float64
	for _, k := range []int{1, 4, 16} {
		var tScan, tParse, tFlow time.Duration
		total := 0
		for _, base := range sample {
			var b bytes.Buffer
			for j := 0; j < k; j++ {
				b.WriteString(base)
			}
			src := b.String()
			total += len(src)
			best := func(f func()) time.Duration {
				d := timed(f)
				for i := 0; i < 4; i++ {
					d = min(d, timed(f))
				}
				return d
			}
			var mod *pyast.Module
			tScan += best(func() { pytoken.ScanAll("sample.py", src) })
			tParse += best(func() { mod, _ = pyparse.Parse("sample.py", src) })
			tFlow += best(func() { dataflow.AnalyzeModule(mod, dataflow.Options{}) })
		}
		size = append(size, float64(total))
		scan = append(scan, tScan.Seconds())
		parse = append(parse, (tParse - tScan).Seconds())
		flow = append(flow, tFlow.Seconds())
	}
	r.set("pytoken.size_exponent", slope(size, scan))
	r.set("pyparse.size_exponent", slope(size, parse))
	r.set("dataflow.size_exponent", slope(size, flow))
}

// stagedLearn is what the stage-by-stage learn produced, kept so the
// caller can check it against the one-call result and read the counts.
type stagedLearn struct {
	union *propgraph.Graph
	sys   *constraints.System
	sol   *lp.Result
	res   *core.Result
	store []byte
}

// stageLearn is core.LearnFromSources taken apart: every file through
// stageFile in sorted-name order, then union, constraint build, solve,
// selection and encoding, one public call and one span each. lp.Minimize
// runs twice — once alone as lp's twin, once inside core.LearnPrepared —
// so core's own share (role selection) is the difference.
func stageLearn(tr *tracer, files map[string]string, seed *spec.Spec, cfg core.Config, fc *frontCounts) *stagedLearn {
	st := &stagedLearn{}
	tr.operation("op.learn", func() {
		names := sortedNames(files)
		graphs := make([]*propgraph.Graph, len(names))
		for i, n := range names {
			graphs[i], _ = stageFile(tr, n, files[n], fc)
		}
		tr.do("propgraph.union", func() { st.union = propgraph.Union(graphs...) })
		tr.do("constraints.build", func() { st.sys = constraints.Build(st.union, seed, constraintOpts(cfg)) })
		st.solveAndEncode(tr, seed, cfg, len(files))
	})
	return st
}

// solveAndEncode is the back half every learning path shares: solver
// twin, core.LearnPrepared, learned spec, store encoding.
func (st *stagedLearn) solveAndEncode(tr *tracer, seed *spec.Spec, cfg core.Config, files int) {
	tr.do("lp.minimize", func() { st.sol = lp.Minimize(st.sys.Problem, cfg.Solver) })
	tr.do("core.learn_prepared", func() { st.res = core.LearnPrepared(st.union, st.sys, cfg) })
	var learned *spec.Spec
	tr.do("core.learned_spec", func() { learned = st.res.LearnedSpec(seed) })
	tr.do("specio.encode", func() {
		st.store = encodeStore(learned, seed, files, len(st.union.Events))
	})
}

// backMetrics reports union, constraints, lp, core selection and specio
// from the spans of ops recorded operations and the last staged result.
func backMetrics(r *result, lt map[string]layerTime, st *stagedLearn, ops int) {
	n := float64(max(ops, 1))
	r.set("propgraph.union_s", (lt["propgraph.union"].total).Seconds()/n)
	r.set("propgraph.symbols", float64(st.union.Syms.Len()))
	r.set("constraints.vars", float64(st.sys.Problem.NumVars))
	r.set("constraints.constraints", float64(len(st.sys.Problem.Constraints)))
	solve := lt["lp.minimize"].total
	r.set("lp.minimize_s", solve.Seconds()/n)
	r.set("lp.objective", st.sol.Objective)
	r.set("core.select_self_s", (lt["core.learn_prepared"].total-solve).Seconds()/n)
	r.set("core.predictions", float64(len(st.res.Predictions)))
	r.set("specio.encode_s", (lt["specio.encode"].total).Seconds()/n)
	r.set("specio.store_bytes", float64(len(st.store)))
}

// solverMetrics reports lp's work counts from the epochs its twin ran
// over ops operations.
func solverMetrics(r *result, lt map[string]layerTime, epochs, constraintCount, ops int) {
	evals := float64(epochs) * float64(constraintCount)
	r.set("lp.constraint_evals", evals/float64(max(ops, 1)))
	if evals > 0 {
		r.set("lp.ns_per_constraint_epoch", float64(lt["lp.minimize"].total)/evals)
	}
}

// qualityMetrics scores the learned entries against the corpus's
// ground truth, which the learner never sees: every entry is judged (no
// sampling), overall and per role, and recall is over the catalog roles
// absent from the seed.
func qualityMetrics(r *result, res *core.Result, seed *spec.Spec, truth *corpus.Truth) {
	entries := res.LearnedEntries(seed)
	pr := eval.SamplePrecision(entries, truth, len(entries)+1, 1)
	r.set("eval.spec_precision", pr.Overall().Precision())
	r.set("eval.spec_recall", eval.MeasureRecall(entries, corpus.LearnableReps()).Fraction())
	r.set("eval.precision_source", pr.PerRole[propgraph.Source].Precision())
	r.set("eval.precision_sanitizer", pr.PerRole[propgraph.Sanitizer].Precision())
	r.set("eval.precision_sink", pr.PerRole[propgraph.Sink].Precision())
}

// traceOverhead reports what recording costs as a share of the
// operation the spans describe: 1 + spans per operation × the cost of one
// span ÷ the median one-call operation. The quotient of a recorded and an
// unrecorded timing would say the same with the run-to-run noise of both
// on top, which for a 1.5 s learn is fifty times the quantity measured.
// Recording that costs a tenth of the operation fails the run.
func traceOverhead(r *result, tr *tracer, ops int, onecall sample) {
	perOp := float64(len(tr.spans)) / float64(max(ops, 1))
	cost, op := spanCost(), onecall.median()
	ratio := 1 + perOp*cost/op
	r.setNote("bench.trace_overhead_ratio", ratio, "%.0f spans per operation at %.0f ns each, operation %.4g ms", perOp, cost, op/1e6)
	if ratio >= 1.1 {
		r.fail("recording costs %.1f %% of the operation; the per-layer times describe the recorder", (ratio-1)*100)
	}
}

// spanCost is the time one span adds, in nanoseconds: a scratch tracer
// around a function that does nothing.
func spanCost() float64 {
	const n = 20000
	t := newTracer()
	d := timed(func() {
		for i := 0; i < n; i++ {
			t.do("bench.span", func() {})
		}
	})
	return float64(d) / n
}

// harnessOverhead is the cost of the timing loop itself: the same
// timed() wrapper around an operation that does nothing.
func harnessOverhead(r *result) {
	lat := make(sample, 0, 10000)
	for i := 0; i < cap(lat); i++ {
		lat = append(lat, int64(timed(func() {})))
	}
	r.set("bench.overhead_ns", lat.median())
}
