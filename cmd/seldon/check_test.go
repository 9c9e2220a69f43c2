package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildSeldon compiles this package into a temp dir, the way
// internal/shard/exec_test.go builds the worker, so main, its flag
// parsing and its exit status are what runs.
func buildSeldon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping seldon build")
	}
	bin := filepath.Join(t.TempDir(), "seldon")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCheckGolden pins what a user of `seldon check` sees — stdout and
// the exit status (0 clean, 1 findings, 2 usage or I/O) — over
// testdata/check: six files of corpus.Generate(Config{Files: 6, Seed: 3}),
// one with a syntax error that repeats a flow of views_2.py, and a
// specification learned from `-generate 120`. All goldens but generate's
// were recorded in the commit before the checker moved here from a binary
// of its own; UPDATE_GOLDEN=1 rewrites them, only for a deliberate change
// of the output.
func TestCheckGolden(t *testing.T) {
	bin := buildSeldon(t)
	with := func(args ...string) []string { return append([]string{"-spec", "learned.spec"}, args...) }
	cases := []struct {
		name string
		args []string
	}{
		{"dir", with("-dir", "corpus")},
		// Shuffled, views_2.py twice: the same bytes as dir.
		{"positional", with(
			"corpus/proj000/views_3.py", "corpus/proj000/views_2.py", "corpus/broken.py",
			"corpus/proj000/views_5.py", "corpus/proj000/util_4.py", "corpus/proj000/views_2.py",
			"corpus/proj000/views_0.py", "corpus/proj000/views_1.py")},
		{"dedupe", with("-dedupe", "-dir", "corpus")},
		{"verbose", with("-v", "-dir", "corpus")},
		{"clean", with("corpus/proj000/views_0.py")},
		{"noinput", with()},
		{"generate", with("-generate", "12")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, append([]string{"check"}, tc.args...)...)
			cmd.Dir = filepath.Join("testdata", "check")
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			status := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatalf("running seldon check: %v", err)
				}
				status = exit.ExitCode()
			}
			got := fmt.Appendf(stdout.Bytes(), "exit status %d\n", status)

			golden := filepath.Join("testdata", "check", tc.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("seldon check %v:\n--- got\n%s--- want\n%s", tc.args, got, want)
			}
		})
	}
}
