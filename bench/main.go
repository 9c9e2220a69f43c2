// Command bench is Seldon's layered benchmark: one workload per
// process, inputs generated from a seed, every output checked, every
// metric of BENCHMARK.json printed by name with its unit.
//
//	go run ./bench -workload learn_cold -seed 1            end-to-end metrics
//	go run ./bench -workload learn_cold -seed 1 -trace 1   per-layer metrics + span file
//	go run ./bench -workload all -out A.json               the full set, one process each
//	go run ./bench -compare A.json B.json                  gate B against A
//	go run ./bench -selfcheck                              two sets of this commit, compared
//
// See README.md in this directory for what each workload and metric is
// for.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// config is one run's settings. Only what a person running the
// benchmark chooses is a flag; store, setups and outDir are fields so
// the smoke test can run at toy size into a temporary directory.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	files    int    // corpus size of learn_cold, relearn_delta, ingest_warm
	store    int    // corpus size the served store is learned from
	setups   int    // set-ups of an untraced run; setup_s is their median
	outDir   string // where the span files go
	tmp      string // scratch directory, removed when the run ends
	p        int    // goroutines the harness and the program may use
}

const (
	specPath     = "BENCHMARK.json" // relative to the repository root, where runs start
	defaultFiles = 6000             // the corpus size the committed bounds were measured at
	storeFiles   = 240
	traceDir     = "bench/out"
	setups       = 3 // set-ups of an untraced run
)

// scaled shrinks a fixed request count of the traced serving run in
// proportion to -files, so a toy-size run is toy-sized throughout.
func (c config) scaled(n int) int {
	return max(int(float64(n)*min(1, float64(c.files)/defaultFiles)), 20)
}

// hostFacts go into every output so two result files are never compared
// without knowing what ran them.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	P          int    `json:"p"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Files      int    `json:"files"`
}

func facts(cfg config) hostFacts {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), P: cfg.p,
		GoVersion: runtime.Version(), Commit: commit, Seed: cfg.seed, Files: cfg.files}
}

func (h hostFacts) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d P=%d go=%s commit=%s seed=%d files=%d",
		h.NumCPU, h.GOMAXPROCS, h.P, h.GoVersion, h.Commit, h.Seed, h.Files)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{store: storeFiles, setups: setups, outDir: traceDir}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run, or \"all\" for the set (untraced and traced, one child process each)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "length of the measured window (0: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 replays the workload stage by stage under spans and prints the per-layer metrics")
	fs.IntVar(&cfg.files, "files", defaultFiles, "corpus size of the learning workloads")
	out := fs.String("out", "", "also write the results to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	selfcheck := fs.Bool("selfcheck", false, "run the full set twice and compare the two")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.traced = *trace != 0
	cfg.p = min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(cfg.p)

	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if cfg.seconds == 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *selfcheck:
		return selfCheck(spec, cfg, stdout, stderr)
	case cfg.workload == "all":
		set, err := runSet(spec, cfg, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return writeSet(*out, set, stderr)
	case !spec.hasWorkload(cfg.workload):
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
		fs.Usage()
		return 2
	}

	fmt.Fprintf(stdout, "# seldon bench  workload=%s seconds=%g trace=%d  %s\n",
		cfg.workload, cfg.seconds, *trace, facts(cfg))
	res, err := runWorkload(spec, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := res.print(stdout, spec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		set := &resultSet{Host: facts(cfg), Runs: []setRun{{Workload: cfg.workload, jsonResult: res.json(spec)}}}
		if code := writeSet(*out, set, stderr); code != 0 {
			return code
		}
	}
	if !res.correct() {
		fmt.Fprintf(stderr, "bench: %d of %d operations or output checks failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// workload is one of the five traffic shapes. setup builds its inputs
// from the seed and primes whatever state the timed operation starts
// from; measure warms up, times the closed loop and checks every
// output; layers replays the operation stage by stage under spans.
type workload interface {
	setup() error
	measure(r *result, seconds float64)
	layers(r *result, tr *tracer)
}

func newWorkload(cfg config) workload {
	switch cfg.workload {
	case "learn_cold":
		return &learnCold{cfg: cfg}
	case "relearn_delta":
		return &relearnDelta{cfg: cfg}
	case "ingest_warm":
		return &ingestWarm{cfg: cfg}
	case "check_miss":
		return &checkLoad{cfg: cfg}
	case "check_dup":
		return &checkLoad{cfg: cfg, dup: true}
	}
	return nil
}

// runWorkload runs one workload in this process. Untraced, it sets up
// cfg.setups times so setup_s is a median, measures on the last set-up,
// and reports the end-to-end metrics; traced, it sets up once, reports
// the per-layer metrics and writes the span file.
func runWorkload(spec *benchSpec, cfg config, log io.Writer) (*result, error) {
	if newWorkload(cfg) == nil {
		return nil, fmt.Errorf("workload %q is listed in BENCHMARK.json but not implemented", cfg.workload)
	}
	tmp, err := os.MkdirTemp("", "seldon-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp
	n := cfg.setups
	if cfg.traced {
		n = 1
	}
	// Every set-up starts from a new workload value after the previous one
	// has been released and its memory returned, so the process never holds
	// two copies of the state and peak_rss_mb reads what one set-up and the
	// measurement need. A set-up that takes milliseconds is repeated up to
	// five times as often while it all fits in a second, so its median is
	// as steady as an expensive set-up's.
	var w workload
	var setupS []float64
	for total := 0.0; len(setupS) < n || (!cfg.traced && total < 1 && len(setupS) < 5*n); {
		w = nil
		debug.FreeOSMemory()
		w = newWorkload(cfg)
		var err error
		d := timed(func() { err = w.setup() })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		total += d.Seconds()
	}
	r := newResult(cfg.workload, cfg.traced)
	if cfg.traced {
		tr := newTracer()
		w.layers(r, tr)
		path, err := tr.write(cfg.outDir, facts(cfg), cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "# %d spans written to %s\n", len(tr.spans), path)
	} else {
		w.measure(r, cfg.seconds)
		r.setNote("setup_s", medianFloat(setupS), "median of %d set-ups", len(setupS))
		r.set("peak_rss_mb", peakRSSMB())
	}
	return r, r.check(spec)
}

// peakRSSMB is the process's high-water resident set (VmHWM), read at
// the end of the run; off Linux it falls back to what the Go runtime
// obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// slice is a stretch of a run: the operations that completed in it and
// the time they had (the stretch itself for concurrent clients, the
// summed operation times for a single sequential caller).
type slice struct {
	lat  sample
	busy time.Duration
}

// batchSliceSpan is the least a slice of a batch workload covers: as
// many consecutive operations as it takes to fill a second, so a 1.5 s
// learn is a slice by itself and five 0.2 s re-learns make one.
const batchSliceSpan = time.Second

// batchSlices cuts a sequence of operation times into slices of at least
// batchSliceSpan. Operations left over at the end join the last slice.
func batchSlices(lat sample) []slice {
	var out []slice
	var cur slice
	for _, d := range lat {
		cur.lat = append(cur.lat, d)
		cur.busy += time.Duration(d)
		if cur.busy >= batchSliceSpan {
			out = append(out, cur)
			cur = slice{}
		}
	}
	if len(out) == 0 {
		return []slice{cur}
	}
	last := &out[len(out)-1]
	last.lat = append(last.lat, cur.lat...)
	last.busy += cur.busy
	return out
}

// opMetrics reports the three operation metrics every workload shares:
// the median operation time, a tail percentile (p99 of a check, p75 of a
// batch operation) and operations completed per second. Each is computed
// per slice and the run reports its best slice. This box shares its
// memory system with neighbours that slow a memory-bound operation by
// 20-50 % in bursts of a fraction of a second to a few seconds; they can
// only slow a slice down, so the best slice is the least disturbed
// reading, and it repeats to a few percent where the whole-run median,
// printed beside it, moves by 15-35 %. A slowness of the program's own
// that recurs within every slice (a pause per collection, an eviction
// per insert) is in the best slice too.
func opMetrics(r *result, slices []slice, tailQ float64) {
	var all sample
	med, tail, rate := math.Inf(1), math.Inf(1), 0.0
	for _, sl := range slices {
		if len(sl.lat) == 0 {
			continue // a stall that long shows in the neighbouring slices' tails
		}
		s := sl.lat.sorted()
		all = append(all, s...)
		med = min(med, s.quantile(0.5))
		tail = min(tail, s.quantile(tailQ))
		rate = max(rate, float64(len(s))/sl.busy.Seconds())
	}
	all = all.sorted()
	r.setNote("op_ms", med/1e6, "best of %d slices; whole run %.6g, n=%d", len(slices), all.quantile(0.5)/1e6, len(all))
	r.setNote("op_tail_ms", tail/1e6, "p%g of the best slice, %d ops a slice; whole run %.6g", tailQ*100, len(all)/len(slices), all.quantile(tailQ)/1e6)
	r.setNote("ops_per_s", rate, "best slice; whole run %.6g", float64(len(all))/busyOf(slices).Seconds())
}

func busyOf(slices []slice) (d time.Duration) {
	for _, sl := range slices {
		d += sl.busy
	}
	return d
}
