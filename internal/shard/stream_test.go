package shard

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/envelope"
	"seldon/internal/fpcache"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/specio"
)

// sectionBoundaries walks a well-formed artifact's sections and records
// the byte offset after the header and after each file section — the
// exact places a transfer can die between sections.
func sectionBoundaries(t *testing.T, data []byte) []int64 {
	t.Helper()
	payload, err := openFrame(data)
	if err != nil {
		t.Fatalf("openFrame over good artifact: %v", err)
	}
	r := envelope.NewReader(payload)
	at := func() int64 { return int64(len(data) - checksumSize - len(r.Rest())) }
	readHeader(r)
	n := int(r.Uvarint())
	offs := []int64{at()}
	for i := 0; i < n; i++ {
		fpcache.ReadRecord(r)
		offs = append(offs, at())
	}
	if err := r.Close(); err != nil {
		t.Fatalf("section walk over good artifact: %v", err)
	}
	return offs
}

// streamDecode runs the full streaming path over a byte stream.
func streamDecode(data []byte) (*Artifact, error) {
	return ReadArtifact(bytes.NewReader(data), ReadOptions{})
}

// TestStreamReaderFaults extends the decode fault matrix to the
// streaming reader: truncation at every section boundary (and inside a
// section), a bit flip inside a graph section, and trailing bytes after
// the sha256 trailer — each mapping to the same sentinel the
// whole-buffer decoder reports.
func TestStreamReaderFaults(t *testing.T) {
	files := testFiles(t, 12)
	art := buildSlice(t, files, 0, 1)
	good := art.Encode()
	offs := sectionBoundaries(t, good)
	if len(offs) < 3 {
		t.Fatalf("fixture has %d sections, want several", len(offs)-1)
	}

	t.Run("truncation at every section boundary", func(t *testing.T) {
		for i, off := range offs {
			if _, err := streamDecode(good[:off]); !errors.Is(err, ErrTruncated) {
				t.Errorf("cut at boundary %d (offset %d): %v, want ErrTruncated", i, off, err)
			}
		}
	})
	t.Run("truncation inside a section", func(t *testing.T) {
		for i := 1; i < len(offs); i++ {
			off := offs[i] - 3 // inside section i-1's graph bytes
			if _, err := streamDecode(good[:off]); !errors.Is(err, ErrTruncated) {
				t.Errorf("cut inside section %d (offset %d): %v, want ErrTruncated", i-1, off, err)
			}
		}
	})
	t.Run("truncation inside the trailer", func(t *testing.T) {
		if _, err := streamDecode(good[:len(good)-1]); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut trailer: want ErrTruncated")
		}
	})
	t.Run("bit flip inside a graph section", func(t *testing.T) {
		// Flip a byte in every section's graph bytes (the tail of each
		// section): whether the damaged graph still parses or not, the
		// running checksum must convict before the artifact is usable.
		for i := 1; i < len(offs); i++ {
			data := append([]byte(nil), good...)
			data[offs[i]-2] ^= 0x40
			a, err := streamDecode(data)
			if a != nil {
				t.Fatalf("section %d: damaged artifact decoded to a non-nil result", i-1)
			}
			if !errors.Is(err, ErrChecksum) {
				t.Errorf("section %d flip: %v, want ErrChecksum", i-1, err)
			}
		}
	})
	t.Run("trailing bytes after the trailer", func(t *testing.T) {
		if _, err := streamDecode(append(append([]byte(nil), good...), 0xEE)); !errors.Is(err, ErrTrailing) {
			t.Error("trailing byte: want ErrTrailing")
		}
	})
	t.Run("sections survive until checksum settles", func(t *testing.T) {
		// The success path of the same walk: every section the reader
		// yields carries the bytes whose hashes the merge will span on.
		a, err := streamDecode(good)
		if err != nil {
			t.Fatalf("streamDecode(good): %v", err)
		}
		if len(a.Files) != len(files) {
			t.Fatalf("decoded %d files, want %d", len(a.Files), len(files))
		}
		for i := range a.Files {
			if f := &a.Files[i]; f.GraphHash != sha256.Sum256(f.Graph) {
				t.Fatalf("file %q: span hash is not its graph bytes' hash", f.Name)
			}
		}
	})
}

// TestStreamingMergeDeterminism extends the shard-count × shuffled-
// arrival oracle to the streaming path: artifacts stream through
// ReadArtifact and a Merger commit queue in random arrival order, and
// the union, fingerprint, and per-file spans must match the
// single-process run byte for byte.
func TestStreamingMergeDeterminism(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 60}).FileMap()

	fe := core.AnalyzeFiles(files, core.Config{Workers: 1})
	want := propgraph.Union(fe.Graphs...).AppendBinary(nil)
	wantFP := specio.Fingerprint(files)
	// The spans a single process would hand BuildIncremental.
	wantSpans := make([]struct {
		lo, hi int
		hash   [32]byte
	}, len(fe.Names))
	at := 0
	for i, g := range fe.Graphs {
		wantSpans[i].lo = at
		at += len(g.Events)
		wantSpans[i].hi = at
		wantSpans[i].hash = sha256.Sum256(g.AppendBinary(nil))
	}

	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 7} {
		order := rng.Perm(n)
		m := NewMerger(MergeOptions{})
		var total int64
		for _, i := range order {
			a, err := streamDecode(buildSlice(t, files, i, n).Encode())
			if err != nil {
				t.Fatalf("n=%d slice %d: stream decode: %v", n, i, err)
			}
			total += a.Size
			if err := m.Commit(a); err != nil {
				t.Fatalf("n=%d slice %d: Commit: %v", n, i, err)
			}
		}
		res, err := m.Finish()
		if err != nil {
			t.Fatalf("n=%d: Finish: %v", n, err)
		}
		if got := res.Graph.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Errorf("n=%d order %v: streamed union differs from single-process union", n, order)
		}
		if res.CorpusFingerprint != wantFP {
			t.Errorf("n=%d: fingerprint %s, want %s", n, res.CorpusFingerprint, wantFP)
		}
		if len(res.Spans) != len(wantSpans) {
			t.Fatalf("n=%d: %d spans, want %d", n, len(res.Spans), len(wantSpans))
		}
		for i, sp := range res.Spans {
			w := wantSpans[i]
			if sp.File != fe.Names[i] || sp.Lo != w.lo || sp.Hi != w.hi || sp.Hash != w.hash {
				t.Fatalf("n=%d span %d = {%s %d %d}, want {%s %d %d} (hash match %v)",
					n, i, sp.File, sp.Lo, sp.Hi, fe.Names[i], w.lo, w.hi, sp.Hash == w.hash)
			}
		}
		if res.PeakBytes <= 0 || res.PeakBytes > total {
			t.Errorf("n=%d: PeakBytes = %d, want within (0, %d]", n, res.PeakBytes, total)
		}
		if n > 1 && res.PeakBytes == total {
			// Possible only when slice 0 arrives last; the fixed seed's
			// permutations don't do that — a regression to whole-set
			// buffering would.
			for pos, i := range order {
				if i == 0 && pos < n-1 {
					t.Errorf("n=%d order %v: peak equals total despite early slice 0", n, order)
				}
			}
		}
	}
}

// TestSidecarIngest: an artifact's records round-trip through the wire
// into a coordinator-side cache, whose entries then hit for the same
// (name, content) with the identical graph. No sidecar is needed for it
// any more: an artifact carries nothing but its records, so every one
// seeds a cache.
func TestSidecarIngest(t *testing.T) {
	files := testFiles(t, 10)
	art, fe, err := BuildFromCorpus(files, 0, 1, core.Config{Workers: 1})
	if err != nil {
		t.Fatalf("BuildFromCorpus: %v", err)
	}
	data := art.Encode()

	dir := t.TempDir()
	cache, err := fpcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	if _, err := ReadArtifact(bytes.NewReader(data), ReadOptions{Cache: cache, Metrics: reg}); err != nil {
		t.Fatalf("ReadArtifact: %v", err)
	}
	if paths, err := filepath.Glob(filepath.Join(dir, "*.fpc")); err != nil || len(paths) != len(files) {
		t.Fatalf("ingested %d cache entries (%v), want %d", len(paths), err, len(files))
	}
	for i, name := range fe.Names {
		ent, ok := cache.Get(name, files[name])
		if !ok {
			t.Fatalf("cache miss for %q after ingest", name)
		}
		if !bytes.Equal(ent.Graph.AppendBinary(nil), fe.Graphs[i].AppendBinary(nil)) {
			t.Fatalf("ingested graph for %q differs from the worker's", name)
		}
		if want := fe.Record(i, files[name]).ParseError; ent.ParseError != want {
			t.Errorf("ingested parse error for %q = %q, want %q", name, ent.ParseError, want)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.CounterShardStreamBytes] != int64(len(data)) {
		t.Errorf("shard.stream.bytes = %d, want %d",
			snap.Counters[obs.CounterShardStreamBytes], len(data))
	}

	// A corrupt artifact must ingest nothing: entries are staged until
	// the trailer settles.
	dir2 := t.TempDir()
	cache2, err := fpcache.Open(dir2)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01
	if _, err := ReadArtifact(bytes.NewReader(bad), ReadOptions{Cache: cache2}); err == nil {
		t.Fatal("corrupt artifact decoded")
	}
	if paths, _ := filepath.Glob(filepath.Join(dir2, "*.fpc")); len(paths) != 0 {
		t.Fatalf("corrupt artifact ingested %d cache entries, want 0", len(paths))
	}
}

// bigSlice builds a one-slice artifact whose graph sections are several
// times propgraph's fan-out threshold, so that reading it at more than
// one processor decodes on several goroutines.
func bigSlice(t *testing.T) *Artifact {
	t.Helper()
	files := testFiles(t, 400)
	art, _, err := BuildFromCorpus(files, 0, 1, core.Config{Workers: 1})
	if err != nil {
		t.Fatalf("BuildFromCorpus: %v", err)
	}
	return art
}

// sameFile reports whether two manifest entries are equal field for
// field.
func sameFile(a, b FileMeta) bool {
	return a.Name == b.Name && a.Source == b.Source && a.ParseError == b.ParseError &&
		bytes.Equal(a.Graph, b.Graph) && a.GraphHash == b.GraphHash
}

// TestReadArtifactAcrossProcs holds the section-parallel reader to the
// one-goroutine answer: the same manifest, span hashes and per-file
// graphs at GOMAXPROCS 1, 2 and 8, and an
// artifact that encodes back to the bytes it was read from.
func TestReadArtifactAcrossProcs(t *testing.T) {
	want := bigSlice(t)
	data := want.Encode()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := streamDecode(data)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if !slices.EqualFunc(got.Files, want.Files, sameFile) {
			t.Errorf("GOMAXPROCS=%d: manifest or span fields differ from the built artifact's", procs)
		}
		if len(got.FileGraphs) != len(want.FileGraphs) {
			t.Fatalf("GOMAXPROCS=%d: %d file graphs, want %d", procs, len(got.FileGraphs), len(want.FileGraphs))
		}
		for i, g := range got.FileGraphs {
			if !bytes.Equal(g.AppendBinary(nil), want.FileGraphs[i].AppendBinary(nil)) {
				t.Fatalf("GOMAXPROCS=%d: graph of %q differs", procs, got.Files[i].Name)
			}
		}
		if got.Graph != nil {
			t.Errorf("GOMAXPROCS=%d: a decoded artifact carries a slice union", procs)
		}
		if !bytes.Equal(got.Encode(), data) {
			t.Errorf("GOMAXPROCS=%d: decoded artifact does not encode back to its bytes", procs)
		}
	}
}

// TestReadArtifactLowestFaultWins: a verified payload with more than one
// fault is refused with the fault a front-to-back reader meets first,
// whichever goroutine meets which. Section i's graph is bad; behind it,
// section j has a bad graph too, or ends inside its fields, or carries a
// name out of order — each a fault on its own, none of them reported
// while i's stands, at one processor and at four.
func TestReadArtifactLowestFaultWins(t *testing.T) {
	art := bigSlice(t)
	good := art.Encode()
	offs := sectionBoundaries(t, good)
	n := len(art.Files)
	i, j := n/8, 3*n/4
	// A section ends with its graph; a zero where the graph's tag was.
	badGraph := func(d []byte, k int) {
		d[int(offs[k+1])-len(art.FileGraphs[k].AppendBinary(nil))] = 0
	}
	reseal := func(d []byte) []byte { return envelope.Seal(d[:len(d)-checksumSize]) }
	payload, err := openFrame(good)
	if err != nil {
		t.Fatal(err)
	}
	frame := len(good) - checksumSize - len(payload) // where the payload begins
	behind := map[string]func(d []byte) []byte{
		"bad graph": func(d []byte) []byte { badGraph(d, j); return reseal(d) },
		"cut field": func(d []byte) []byte { return seal(d[frame : int(offs[j])+8]) },
		"unsorted name": func(d []byte) []byte {
			d[offs[j]+1] = '!' // the name's first byte, behind its one-byte length
			return reseal(d)
		},
	}
	wantText := fmt.Sprintf("graph section for %q", art.Files[i].Name)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, damage := range behind {
		alone := damage(bytes.Clone(good))
		d := bytes.Clone(good)
		badGraph(d, i)
		both := damage(d)
		var texts []string
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			if _, err := streamDecode(alone); !errors.Is(err, ErrEncoding) || strings.Contains(err.Error(), wantText) {
				t.Errorf("%s alone, GOMAXPROCS=%d: %v, want ErrEncoding about section %d", name, procs, err, j)
			}
			a, err := streamDecode(both)
			if a != nil || !errors.Is(err, ErrEncoding) || !strings.Contains(err.Error(), wantText) {
				t.Fatalf("%s behind a bad graph, GOMAXPROCS=%d: %v, want ErrEncoding: %s", name, procs, err, wantText)
			}
			texts = append(texts, err.Error())
		}
		if texts[0] != texts[1] {
			t.Errorf("%s: one processor says %q, four say %q", name, texts[0], texts[1])
		}
	}
}
