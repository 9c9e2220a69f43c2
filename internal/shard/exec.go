package shard

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"

	"seldon/internal/obs"
)

// The local-process executor: the smallest real deployment of the
// worker/coordinator split. Each slice is analyzed by a `seldon shard`
// subprocess writing its artifact to a stdout pipe, and the coordinator
// reads the artifacts off those pipes in slice order — so the whole
// distributed flow (worker binary, wire format, pipelined ingestion) is
// exercised end to end on one box (and in CI) with no scheduler or
// network. A production deployment replaces this fan-out with remote
// workers shipping the same artifacts.

// ExecConfig configures a local fan-out.
type ExecConfig struct {
	// Bin is the seldon binary spawned as `Bin shard ...`: the
	// coordinator's own executable, or the one a test built.
	Bin string
	// Slices is the number of worker subprocesses (one per slice).
	Slices int
	// Dir or Generate designates the corpus, exactly as the worker's
	// -dir / -generate flags do; every worker gets the same designation
	// plus its own slice coordinates.
	Dir      string
	Generate int
	// Workers is each subprocess's front-end pool size (0 = its default).
	Workers int
	// CacheDir, when set, is a shared fpcache directory passed to every
	// worker (fpcache writes are atomic, so concurrent workers are safe).
	// The workers fill it themselves, so they ship no sidecar.
	CacheDir string
	// Metrics, when non-nil, receives the per-artifact decode
	// observations (stage.shard.stream, shard.stream.bytes).
	Metrics *obs.Registry
	// Stderr receives the workers' stderr (nil = the parent's stderr).
	Stderr io.Writer
}

// workerProc is one spawned slice worker and the read end of its
// artifact pipe.
type workerProc struct {
	idx int
	cmd *exec.Cmd
	out io.ReadCloser
}

// startWorkers spawns every slice worker with its stdout piped back. On
// a spawn failure the already-started workers are killed and reaped.
func startWorkers(cfg ExecConfig) ([]workerProc, error) {
	stderr := cfg.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	procs := make([]workerProc, 0, cfg.Slices)
	for i := 0; i < cfg.Slices; i++ {
		args := []string{
			"shard",
			"-slices", strconv.Itoa(cfg.Slices),
			"-slice", strconv.Itoa(i),
			"-o", "-",
		}
		switch {
		case cfg.Dir != "":
			args = append(args, "-dir", cfg.Dir)
		case cfg.Generate > 0:
			args = append(args, "-generate", strconv.Itoa(cfg.Generate))
		}
		if cfg.Workers > 0 {
			args = append(args, "-workers", strconv.Itoa(cfg.Workers))
		}
		if cfg.CacheDir != "" {
			args = append(args, "-cache-dir", cfg.CacheDir)
		}
		cmd := exec.Command(cfg.Bin, args...)
		cmd.Stderr = stderr
		out, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			for _, p := range procs {
				p.cmd.Process.Kill()
				p.out.Close()
				p.cmd.Wait()
			}
			return nil, fmt.Errorf("shard: exec: slice %d/%d (%s): %w", i, cfg.Slices, cfg.Bin, err)
		}
		procs = append(procs, workerProc{idx: i, cmd: cmd, out: out})
	}
	return procs, nil
}

// finish closes the worker's pipe (unblocking it with EPIPE if it is
// still writing) and reaps it, reporting a nonzero exit.
func (p *workerProc) finish(bin string, slices int) error {
	p.out.Close()
	if err := p.cmd.Wait(); err != nil {
		return fmt.Errorf("shard: exec: slice %d/%d (%s): %w", p.idx, slices, bin, err)
	}
	return nil
}

// ExecMerge is the pipelined fan-out: workers run concurrently, and the
// coordinator reads artifacts off the pipes in slice order, folding each
// one into the merge once it has verified and parsed — slice i is decoded
// and merged while workers i+1..n are still analyzing, and the decoded
// artifacts are released as they fold, so peak coordinator memory is
// one artifact, not the corpus. (A finished out-of-turn worker parks
// cheaply on pipe backpressure: its analysis is done and its encoded
// bytes sit in the pipe buffer until the coordinator's turn-taking
// reaches it.)
//
// Failure reporting names the slice and preserves the decoder's
// sentinel: a worker dying mid-write surfaces as slice i's ErrTruncated
// (the pipe ends short of the declared payload), never as a generic
// decode error — and never as a hang, because every pipe is closed and
// every worker reaped on the way out.
func ExecMerge(cfg ExecConfig, mopts MergeOptions) (*MergeResult, error) {
	if cfg.Slices < 1 {
		return nil, fmt.Errorf("shard: exec: need at least 1 slice, got %d", cfg.Slices)
	}
	procs, err := startWorkers(cfg)
	if err != nil {
		return nil, err
	}
	ropts := ReadOptions{Metrics: cfg.Metrics}
	m := NewMerger(mopts)
	fail := func(i int, err error) error {
		// Close every unread pipe (EPIPE stops still-running workers)
		// and reap everything before reporting — no orphans, no hang.
		for j := i; j < len(procs); j++ {
			procs[j].finish(cfg.Bin, cfg.Slices)
		}
		return err
	}
	for i := range procs {
		p := &procs[i]
		a, err := ReadArtifact(p.out, ropts)
		if err != nil {
			return nil, fail(i, fmt.Errorf("shard: exec: slice %d/%d: %w", p.idx, cfg.Slices, err))
		}
		if err := p.finish(cfg.Bin, cfg.Slices); err != nil {
			return nil, fail(i+1, err)
		}
		if err := m.Commit(a); err != nil {
			return nil, fail(i+1, err)
		}
	}
	return m.Finish()
}
