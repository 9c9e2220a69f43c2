package fpcache

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seldon/internal/dataflow"
	"seldon/internal/envelope"
)

const testSrc = `from flask import request
import os

def handler():
    q = request.args.get('q')
    os.system(q)
`

func testEntry(t *testing.T) *Entry {
	t.Helper()
	g, err := dataflow.AnalyzeSource("app.py", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	return &Entry{Graph: g}
}

func openTemp(t *testing.T) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Len counts the entries currently on disk.
func (c *Cache) Len() (int, error) {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, de := range des {
		if strings.HasSuffix(de.Name(), entrySuffix) {
			n++
		}
	}
	return n, nil
}

func TestKeyDerivation(t *testing.T) {
	k := Key("app.py", testSrc)
	if k != Key("app.py", testSrc) {
		t.Error("key is not stable")
	}
	if Key("other.py", testSrc) == k {
		t.Error("key ignores the file name")
	}
	if Key("app.py", testSrc+"\n") == k {
		t.Error("key ignores the content")
	}
	// No length-prefix confusion: moving a byte across the name/content
	// boundary must change the key.
	if Key("app.pyx", testSrc[1:]) == Key("app.py", "x"+testSrc[1:]) {
		t.Error("name/content boundary is ambiguous")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c := openTemp(t)
	want := testEntry(t)
	want.ParseError = "app.py:3:1: unexpected token"

	if _, ok := c.Get("app.py", testSrc); ok {
		t.Fatal("hit on an empty cache")
	}
	n, err := c.Put("app.py", testSrc, want)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("Put wrote %d bytes", n)
	}

	got, ok := c.Get("app.py", testSrc)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.ParseError != want.ParseError || got.Size != n {
		t.Errorf("entry = {err:%q size:%d}, want {err:%q size:%d}",
			got.ParseError, got.Size, want.ParseError, n)
	}
	if !bytes.Equal(got.Graph.AppendBinary(nil), want.Graph.AppendBinary(nil)) {
		t.Error("graph changed through the cache")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.BytesRead != n || st.BytesWritten != n {
		t.Errorf("stats = %+v", st)
	}
	if entries, err := c.Len(); err != nil || entries != 1 {
		t.Errorf("Len = %d, %v", entries, err)
	}
}

// corrupt applies fn to the single entry file in the cache directory.
func corrupt(t *testing.T, c *Cache, fn func([]byte) []byte) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(c.dir, "*"+entrySuffix))
	if err != nil || len(paths) != 1 {
		t.Fatalf("entry files = %v (err %v), want exactly one", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[0], fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionIsAMissNeverAnError(t *testing.T) {
	cases := map[string]func([]byte) []byte{
		"truncated":    func(d []byte) []byte { return d[:len(d)/2] },
		"bit flip":     func(d []byte) []byte { d[len(d)/2] ^= 0xff; return d },
		"empty":        func([]byte) []byte { return nil },
		"garbage":      func([]byte) []byte { return []byte("not a cache entry") },
		"bad checksum": func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d },
		"stale codec version": func(d []byte) []byte {
			d[len(magic)] = codecVersion + 1 // single-byte uvarint
			return d
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			c := openTemp(t)
			if _, err := c.Put("app.py", testSrc, testEntry(t)); err != nil {
				t.Fatal(err)
			}
			corrupt(t, c, fn)
			if _, ok := c.Get("app.py", testSrc); ok {
				t.Fatal("corrupted entry was a hit")
			}
			// The write-back path repairs it.
			if _, err := c.Put("app.py", testSrc, testEntry(t)); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get("app.py", testSrc); !ok {
				t.Fatal("repaired entry still misses")
			}
		})
	}
}

// testRecord is testEntry as the record Put writes for app.py.
func testRecord(t *testing.T) *Record {
	t.Helper()
	e := testEntry(t)
	return &Record{Name: "app.py", Source: sha256.Sum256([]byte(testSrc)),
		ParseError: e.ParseError, Graph: e.Graph.AppendBinary(nil)}
}

func TestEncodeDeterministic(t *testing.T) {
	first := appendEntry(testRecord(t))
	for i := 0; i < 8; i++ {
		if !bytes.Equal(appendEntry(testRecord(t)), first) {
			t.Fatal("entry encoding is not deterministic")
		}
	}
}

// TestPutRecordIsPut: a record stored as it is — the way a coordinator
// ingests a shard's records — is the entry Put writes for its file, found
// by the file's name and content.
func TestPutRecordIsPut(t *testing.T) {
	viaPut, viaRecord := openTemp(t), openTemp(t)
	if _, err := viaPut.Put("app.py", testSrc, testEntry(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := viaRecord.PutRecord(testRecord(t)); err != nil {
		t.Fatal(err)
	}
	key := Key("app.py", testSrc)
	a, errA := os.ReadFile(viaPut.entryPath(key))
	b, errB := os.ReadFile(viaRecord.entryPath(key))
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("PutRecord wrote another entry than Put (%v, %v)", errA, errB)
	}
	if _, ok := viaRecord.Get("app.py", testSrc); !ok {
		t.Fatal("miss on a record stored with PutRecord")
	}
}

// TestEntryOfAnotherFileMisses: an entry is found only by the file it
// records. One copied to another file's key — the name or the content
// differs — is a miss, not that file's analysis.
func TestEntryOfAnotherFileMisses(t *testing.T) {
	c := openTemp(t)
	if _, err := c.Put("app.py", testSrc, testEntry(t)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.entryPath(Key("app.py", testSrc)))
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range [][2]string{{"other.py", testSrc}, {"app.py", testSrc + "\n"}} {
		if err := os.WriteFile(c.entryPath(Key(other[0], other[1])), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(other[0], other[1]); ok {
			t.Errorf("the entry of app.py is a hit for %q with other content", other[0])
		}
	}
}

func TestClear(t *testing.T) {
	c := openTemp(t)
	for _, name := range []string{"a.py", "b.py"} {
		if _, err := c.Put(name, testSrc, testEntry(t)); err != nil {
			t.Fatal(err)
		}
	}
	// A stray temp file from a crashed writer is cleaned up too.
	if err := os.WriteFile(filepath.Join(c.dir, ".0123.fpc.tmp-stray"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Len(); err != nil || n != 0 {
		t.Fatalf("Len after Clear = %d, %v", n, err)
	}
	if des, _ := os.ReadDir(c.dir); len(des) != 1 || des[0].Name() != markerName {
		t.Errorf("directory holds more than its version marker after Clear: %v", des)
	}
	if _, ok := c.Get("a.py", testSrc); ok {
		t.Error("hit after Clear")
	}
}

func TestOpenCreatesNestedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("app.py", testSrc, testEntry(t)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("app.py", testSrc); !ok {
		t.Fatal("miss in freshly created nested dir")
	}
}

// TestOpenRemovesUnreachableEntries puts beside a current entry one that
// another codec version wrote and one filed under a key another
// AnalyzerVersion derived: Open removes exactly the two, and once the
// marker is current, Open reads nothing and removes nothing.
func TestOpenRemovesUnreachableEntries(t *testing.T) {
	dir := t.TempDir()
	rec := Record{Name: "app.py", Source: sha256.Sum256([]byte(testSrc)), Graph: testEntry(t).Graph.AppendBinary(nil)}
	current := key(rec.Name, rec.Source) + entrySuffix
	if err := os.WriteFile(filepath.Join(dir, current), appendEntry(&rec), 0o644); err != nil {
		t.Fatal(err)
	}
	other := rec
	other.Name = "b.py"
	stale := map[string][]byte{
		strings.Repeat("0", 64) + entrySuffix:       appendEntry(&rec),
		key(other.Name, other.Source) + entrySuffix: envelope.Seal(AppendRecord(append([]byte(magic), codecVersion-1), &other)),
	}
	for name, data := range stale {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Fatalf("Len after Open = %d, %v; want the one current entry", n, err)
	}
	if _, ok := c.Get("app.py", testSrc); !ok {
		t.Fatal("Open removed the current entry")
	}
	for name, data := range stale {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Len(); err != nil || n != 3 {
		t.Fatalf("Len after an Open under a current marker = %d, %v; want 3", n, err)
	}
}

// TestHandlesOfOneVersionKeepEachOthersEntries opens two handles on one
// directory, the second as if it had raced the first to a directory
// without a marker: neither removes what the other wrote.
func TestHandlesOfOneVersionKeepEachOthersEntries(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Put("a.py", testSrc, testEntry(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, markerName)); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Put("b.py", testSrc, testEntry(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get("a.py", testSrc); !ok {
		t.Error("the second handle's Open removed the first's entry")
	}
	if _, ok := a.Get("b.py", testSrc); !ok {
		t.Error("the first handle misses the second's entry")
	}
	if n, err := a.Len(); err != nil || n != 2 {
		t.Errorf("Len = %d, %v; want 2", n, err)
	}
}
