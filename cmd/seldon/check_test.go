package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/specio"
	"seldon/internal/taint"
)

// buildSeldon compiles this package into a temp dir, so main, its flag
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
// specification learned from `-generate 120`, and fstring.py, whose
// source is a call inside an f-string's replacement field. All goldens
// but generate's, single's and fstring's were recorded in the commit
// before the checker moved here from a binary of its own; single's (one
// input with findings, whose graph is its own union) was recorded by the
// binary that still copied it through propgraph.Union, and fstring's once
// replacement fields carried file coordinates. UPDATE_GOLDEN=1 rewrites
// them, only for a deliberate change of the output.
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
		{"single", with("-v", "corpus/proj000/views_2.py")},
		{"noinput", with()},
		{"generate", with("-generate", "12")},
		// The source sits in an f-string's replacement field on line 6.
		{"fstring", with("fstring.py")},
		// The tainted name sits in format specs' nested fields too.
		{"fstring_spec", with("fstring_spec.py")},
		// And in self-documenting fields: {x=}, {x = }, {x=!r}.
		{"fstring_selfdoc", with("fstring_selfdoc.py")},
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

// TestCheckReadsTheLearnedStore: the store `seldon learn -o` writes is the
// file `seldon check -spec` reads, and o:/a:/i:/b: lines, the way seeds
// are written by hand, still work for -spec and -seedfile. The committed
// learned.spec saved as a store checks testdata/check as dir.golden pins;
// as a -seedfile either form learns the same store; and checking with
// that store reports what the taint analyzer finds with it in-process.
func TestCheckReadsTheLearnedStore(t *testing.T) {
	bin, dir := buildSeldon(t), t.TempDir()
	text, err := filepath.Abs(filepath.Join("testdata", "check", "learned.spec"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	// A store's first non-space byte is '{', whatever precedes it.
	store := filepath.Join(dir, "learned.json")
	var buf bytes.Buffer
	buf.WriteString("\n  ")
	if err := specio.Encode(&buf, sp, specio.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile(filepath.Join("testdata", "check", "dir.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{text, store} {
		stdout, stderr, status := seldonIn(t, bin, filepath.Join("testdata", "check"), "check", "-spec", f, "-dir", "corpus")
		if got := fmt.Sprintf("%sexit status %d\n", stdout, status); got != string(want) {
			t.Errorf("check -spec %s:\n--- got\n%s--- want\n%s%s", filepath.Base(f), got, want, stderr)
		}
	}

	learned := make([][]byte, 2)
	for i, f := range []string{text, store} {
		out := filepath.Join(dir, fmt.Sprintf("s%d.json", i))
		if _, stderr, status := seldonIn(t, bin, dir, "learn", "-generate", "60", "-seedfile", f, "-o", out); status != 0 {
			t.Fatalf("learn -seedfile %s: exit %d\n%s", filepath.Base(f), status, stderr)
		}
		if learned[i], err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(learned[0], learned[1]) {
		t.Error("learn -seedfile wrote different stores from the same seed as lines and as a store")
	}

	stdout, stderr, status := seldonIn(t, bin, dir, "check", "-generate", "60", "-spec", "s0.json")
	s, _, err := specio.Load(filepath.Join(dir, "s0.json"))
	if err != nil {
		t.Fatal(err)
	}
	union := core.AnalyzeFiles(corpus.Generate(corpus.Config{Files: 60}).FileMap(), core.Config{}).Union()
	n := len(taint.Analyze(union, s))
	if status != 1 || n == 0 || !strings.Contains(stdout, fmt.Sprintf("\n%d reports in ", n)) {
		t.Errorf("check -spec of a learned store: exit %d, want 1 and %d reports:\n%s%s", status, n, stdout, stderr)
	}
}
