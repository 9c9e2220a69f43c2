// Package experiments is test-only: it holds what reproduces the paper's
// evaluation (§7) and nothing the product runs — the experiment drivers,
// the Merlin baseline they compare against, and the one test that keeps
// EXPERIMENTS.md equal to what the code produces.
package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
)

// The document and the size it is recorded at. There is no second size:
// every measured block of EXPERIMENTS.md is this corpus.
const (
	documentPath = "../../EXPERIMENTS.md"
	goldenFiles  = 400
	goldenSeed   = 1
)

// The sizes of the two sweeps (Figure 10; Merlin against Seldon).
var (
	fig10Sizes = []int{100, 200, 300, 400, 500, 600}
	sweepSizes = []int{24, 48, 96, 192}
)

// TestExperimentsGolden regenerates every measured block of EXPERIMENTS.md
// and fails, block by block, where the committed file says something else.
// UPDATE_GOLDEN=1 (make experiments) rewrites the blocks in place; the
// prose between them is never touched.
func TestExperimentsGolden(t *testing.T) {
	stale, err := checkDocument(documentPath, golden().blocks(), os.Getenv("UPDATE_GOLDEN") != "")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stale {
		t.Errorf("EXPERIMENTS.md block %q is not what the code produces (make experiments rewrites it):\n%s", s.name, s.diff)
	}
}

// TestGoldenDetects holds the golden test to its own claims on a temporary
// copy of the document: a changed digit inside a block is reported under
// that block's name, a damaged marker is an error and never a shorter
// document, an update restores the committed bytes, and text outside the
// markers survives an update.
func TestGoldenDetects(t *testing.T) {
	committed, err := os.ReadFile(documentPath)
	if err != nil {
		t.Fatal(err)
	}
	blocks := golden().blocks()
	replace := func(old, new string) func(*testing.T, string) string {
		return func(t *testing.T, doc string) string {
			if !strings.Contains(doc, old) {
				t.Fatalf("document has no %q to perturb", old)
			}
			return strings.Replace(doc, old, new, 1)
		}
	}
	appendBlock := func(name string) func(*testing.T, string) string {
		return func(_ *testing.T, doc string) string { return doc + beginMarker(name) + "\n" + endMarker(name) + "\n" }
	}
	for _, tc := range []struct {
		name      string
		perturb   func(*testing.T, string) string
		wantStale string // block reported stale, if any
		wantErr   string // substring of the error, if any
		restores  bool   // an update must give the committed bytes back
	}{
		{name: "untouched", perturb: func(_ *testing.T, d string) string { return d }, restores: true},
		{name: "digit inside a block", wantStale: "table1", restores: true,
			perturb: replace("| # Source files | 44,250 | 400 |", "| # Source files | 44,250 | 401 |")},
		{name: "text outside the markers",
			perturb: replace("# EXPERIMENTS", "# EXPERIMENTS 7")},
		{name: "missing end marker", wantErr: `block "table1" has no end marker`,
			perturb: replace(endMarker("table1")+"\n", "")},
		{name: "block name twice", wantErr: `block "table1" appears twice`,
			perturb: appendBlock("table1")},
		{name: "block no driver produces", wantErr: `no driver produces block "table99"`,
			perturb: appendBlock("table99")},
		{name: "block the document lacks", wantErr: `document has no block "q7"`,
			perturb: func(t *testing.T, d string) string {
				d = replace(beginMarker("q7")+"\n", "")(t, d)
				return replace(endMarker("q7")+"\n", "")(t, d)
			}},
		{name: "end without begin", wantErr: `end marker "table2" closes nothing`,
			perturb: replace(beginMarker("table2")+"\n", "")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
			perturbed := tc.perturb(t, string(committed))
			if err := os.WriteFile(path, []byte(perturbed), 0o644); err != nil {
				t.Fatal(err)
			}
			stale, err := checkDocument(path, blocks, false)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want one naming %q", err, tc.wantErr)
				}
				if _, err := checkDocument(path, blocks, true); err == nil {
					t.Fatal("an update accepted the damaged document")
				}
				if after, _ := os.ReadFile(path); string(after) != perturbed {
					t.Fatal("a refused update rewrote the document")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, s := range stale {
				names = append(names, s.name)
			}
			if got := strings.Join(names, ","); got != tc.wantStale {
				t.Fatalf("stale blocks = %q, want %q", got, tc.wantStale)
			}
			if stale, err = checkDocument(path, blocks, true); err != nil || len(stale) != 0 {
				t.Fatalf("update: stale %v, err %v", stale, err)
			}
			after, _ := os.ReadFile(path)
			if tc.restores && !bytes.Equal(after, committed) {
				t.Fatal("an update did not restore the committed bytes")
			}
			if !tc.restores && string(after) != perturbed {
				t.Fatal("an update rewrote text outside the markers")
			}
		})
	}
}

// A block is one generated region of the document: a name and the
// Markdown between its markers.
type block struct{ name, text string }

// staleBlock names a block whose committed text differs, with the lines
// that do.
type staleBlock struct{ name, diff string }

func beginMarker(name string) string { return "<!-- experiments:begin " + name + " -->" }
func endMarker(name string) string   { return "<!-- experiments:end " + name + " -->" }

// markerName returns the block a marker line of the given kind names.
func markerName(line, kind string) (string, bool) {
	rest, ok := strings.CutPrefix(line, "<!-- experiments:"+kind+" ")
	if !ok {
		return "", false
	}
	return strings.CutSuffix(rest, " -->")
}

// checkDocument compares each generated block with the text between its
// markers in the file at path. The markers and the blocks must name the
// same set, each once, or it is an error. With update set, stale blocks
// are rewritten in place and none is returned.
func checkDocument(path string, blocks []block, update bool) ([]staleBlock, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	want := make(map[string]string, len(blocks))
	for _, b := range blocks {
		want[b.name] = b.text
	}
	var (
		out   strings.Builder
		stale []staleBlock
		seen  = make(map[string]bool)
		open  string // block whose begin marker is the last one read
		body  strings.Builder
	)
	for _, line := range strings.SplitAfter(string(doc), "\n") {
		text := strings.TrimSuffix(line, "\n")
		if name, ok := markerName(text, "begin"); ok {
			switch {
			case open != "":
				return nil, fmt.Errorf("%s: block %q has no end marker", path, open)
			case seen[name]:
				return nil, fmt.Errorf("%s: block %q appears twice", path, name)
			}
			if _, ok := want[name]; !ok {
				return nil, fmt.Errorf("%s: no driver produces block %q", path, name)
			}
			seen[name], open = true, name
			body.Reset()
			out.WriteString(line)
			continue
		}
		if name, ok := markerName(text, "end"); ok {
			if name != open {
				if open != "" {
					return nil, fmt.Errorf("%s: block %q has no end marker", path, open)
				}
				return nil, fmt.Errorf("%s: end marker %q closes nothing", path, name)
			}
			if body.String() != want[name] {
				stale = append(stale, staleBlock{name, lineDiff(body.String(), want[name])})
			}
			out.WriteString(want[name])
			out.WriteString(line)
			open = ""
			continue
		}
		if open != "" {
			body.WriteString(line)
		} else {
			out.WriteString(line)
		}
	}
	if open != "" {
		return nil, fmt.Errorf("%s: block %q has no end marker", path, open)
	}
	for _, b := range blocks {
		if !seen[b.name] {
			return nil, fmt.Errorf("%s: document has no block %q", path, b.name)
		}
	}
	if !update || len(stale) == 0 {
		return stale, nil
	}
	return nil, os.WriteFile(path, []byte(out.String()), 0o644)
}

// lineDiff prints the lines two texts do not share, past their common
// head and tail: "-" committed, "+" generated.
func lineDiff(committed, generated string) string {
	a, b := strings.Split(committed, "\n"), strings.Split(generated, "\n")
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	var d strings.Builder
	for _, l := range a {
		d.WriteString("- " + l + "\n")
	}
	for _, l := range b {
		d.WriteString("+ " + l + "\n")
	}
	return d.String()
}

// BenchmarkMerlinSweep is for the seconds the golden leaves out: Merlin's
// inference and Seldon's learn on the same growing application.
func BenchmarkMerlinSweep(b *testing.B) {
	seed := corpus.ExperimentSeed()
	for _, files := range sweepSizes {
		g, collapsed := sweepGraph(corpus.Config{Seed: goldenSeed}, files)
		b.Run(fmt.Sprintf("merlin/files=%d", files), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Infer(collapsed, seed, Options{MaxFactors: MerlinBudget}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("seldon/files=%d", files), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Learn(g, seed, smallCutoff())
			}
		})
	}
}
