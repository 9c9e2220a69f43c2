package shard

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/propgraph"
)

// buildWorkerBin compiles cmd/seldon into a temp dir so the test exercises
// the real subprocess fan-out (`seldon shard`), pipes and all.
func buildWorkerBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping worker-binary build")
	}
	bin := filepath.Join(t.TempDir(), "seldon")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, "seldon/cmd/seldon")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build seldon: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(string(bytes.TrimSpace(out)))
}

// TestExecMergeWorkerFailure: a worker that dies must fail the fan-out
// with an error naming its slice, not yield a partial merge.
func TestExecMergeWorkerFailure(t *testing.T) {
	bin := buildWorkerBin(t)
	// No corpus designation: every worker exits nonzero.
	res, err := ExecMerge(ExecConfig{Bin: bin, Slices: 2, Stderr: io.Discard}, MergeOptions{})
	if err == nil || res != nil {
		t.Fatalf("ExecMerge with workers that had no corpus = %v, %v", res, err)
	}
	if !strings.Contains(err.Error(), "slice 0/2") {
		t.Errorf("ExecMerge error %q does not name the failed slice", err)
	}
}

func TestExecMergeRejectsZeroSlices(t *testing.T) {
	if _, err := ExecMerge(ExecConfig{Bin: "true", Slices: 0}, MergeOptions{}); err == nil {
		t.Fatal("ExecMerge accepted 0 slices")
	}
}

// TestExecMerge runs the pipelined fan-out end to end: 3 subprocesses
// streaming into the commit queue, with the result byte-identical to
// the in-process union and peak decoded footprint below the whole-set
// total (the point of streaming).
func TestExecMerge(t *testing.T) {
	bin := buildWorkerBin(t)
	const nFiles, nSlices = 40, 3

	res, err := ExecMerge(ExecConfig{
		Bin: bin, Slices: nSlices, Generate: nFiles,
		Workers: 1, Stderr: io.Discard,
	}, MergeOptions{})
	if err != nil {
		t.Fatalf("ExecMerge: %v", err)
	}
	files := corpus.Generate(corpus.Config{Files: nFiles}).FileMap()
	fe := core.AnalyzeFiles(files, core.Config{Workers: 1})
	want := propgraph.Union(fe.Graphs...)
	if !bytes.Equal(res.Graph.AppendBinary(nil), want.AppendBinary(nil)) {
		t.Error("pipelined-merge graph differs from in-process union")
	}
	if len(res.Spans) != nFiles {
		t.Errorf("merge produced %d spans, want %d", len(res.Spans), nFiles)
	}
	if res.PeakBytes <= 0 || res.PeakBytes >= res.Bytes {
		t.Errorf("PeakBytes = %d, want within (0, %d): in-order streaming must not hold the whole set",
			res.PeakBytes, res.Bytes)
	}
}

// truncatingWorker writes a fake worker script that emits the first n
// bytes of a real artifact and then dies — a worker crashing mid-write.
func truncatingWorker(t *testing.T, n int) string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("sh script worker")
	}
	dir := t.TempDir()
	art := filepath.Join(dir, "good.shard")
	data := buildSlice(t, testFiles(t, 12), 0, 2).Encode()
	if n >= len(data) {
		t.Fatalf("truncation point %d beyond artifact (%d bytes)", n, len(data))
	}
	if err := os.WriteFile(art, data[:n], 0o644); err != nil {
		t.Fatal(err)
	}
	script := filepath.Join(dir, "worker.sh")
	if err := os.WriteFile(script, []byte("#!/bin/sh\ncat "+art+"\nexit 1\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	return script
}

// TestExecMergePipeDeath: a worker dying mid-stream must surface as its
// slice's streaming sentinel (ErrTruncated — the pipe ended inside the
// payload), with the slice index in the message, promptly — not after
// waiting for slices that will never complete.
func TestExecMergePipeDeath(t *testing.T) {
	bin := truncatingWorker(t, 100)
	done := make(chan error, 1)
	go func() {
		_, err := ExecMerge(ExecConfig{Bin: bin, Slices: 2, Stderr: io.Discard}, MergeOptions{})
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ExecMerge hung on a dead worker")
	}
	if err == nil {
		t.Fatal("ExecMerge succeeded with a mid-stream worker death")
	}
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("ExecMerge error = %v, want ErrTruncated", err)
	}
	if !strings.Contains(err.Error(), "slice 0/2") {
		t.Errorf("ExecMerge error %q does not name the failed slice", err)
	}
}
