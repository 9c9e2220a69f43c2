package fpcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"seldon/internal/dataflow"
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
	return &Entry{Graph: g, Cost: 123 * time.Microsecond}
}

func openTemp(t *testing.T) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
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
	if got.ParseError != want.ParseError || got.Cost != want.Cost || got.Size != n {
		t.Errorf("entry = {err:%q cost:%v size:%d}, want {err:%q cost:%v size:%d}",
			got.ParseError, got.Cost, got.Size, want.ParseError, want.Cost, n)
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
	paths, err := filepath.Glob(filepath.Join(c.Dir(), "*"+entrySuffix))
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

func TestEncodeDeterministic(t *testing.T) {
	e := testEntry(t)
	first := e.encode()
	for i := 0; i < 8; i++ {
		if !bytes.Equal(e.encode(), first) {
			t.Fatal("entry encoding is not deterministic")
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
	if err := os.WriteFile(filepath.Join(c.Dir(), ".0123.fpc.tmp-stray"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Len(); err != nil || n != 0 {
		t.Fatalf("Len after Clear = %d, %v", n, err)
	}
	if des, _ := os.ReadDir(c.Dir()); len(des) != 0 {
		t.Errorf("directory not empty after Clear: %v", des)
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
