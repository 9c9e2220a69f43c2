package core

import (
	"fmt"
	"sort"
	"testing"
)

func TestSliceNamesPartition(t *testing.T) {
	var names []string
	for i := 0; i < 23; i++ {
		names = append(names, fmt.Sprintf("f%02d.py", i))
	}
	for _, n := range []int{1, 2, 4, 7, 23, 30} {
		var concat []string
		for i := 0; i < n; i++ {
			s := SliceNames(names, i, n)
			if !sort.StringsAreSorted(s) {
				t.Errorf("n=%d slice %d not sorted", n, i)
			}
			concat = append(concat, s...)
		}
		if len(concat) != len(names) {
			t.Fatalf("n=%d: concatenated slices have %d names, want %d", n, len(concat), len(names))
		}
		for i := range names {
			if concat[i] != names[i] {
				t.Fatalf("n=%d: concatenation diverges at %d: %q vs %q", n, i, concat[i], names[i])
			}
		}
	}
}

func TestSliceNamesOutOfRange(t *testing.T) {
	names := []string{"a.py", "b.py"}
	for _, tc := range [][2]int{{-1, 2}, {2, 2}, {0, 0}} {
		if s := SliceNames(names, tc[0], tc[1]); s != nil {
			t.Errorf("SliceNames(i=%d, n=%d) = %v, want nil", tc[0], tc[1], s)
		}
	}
}

func TestSliceFiles(t *testing.T) {
	files := map[string]string{"c.py": "3", "a.py": "1", "b.py": "2"}
	union := map[string]string{}
	for i := 0; i < 2; i++ {
		for name, src := range SliceFiles(files, i, 2) {
			union[name] = src
		}
	}
	if len(union) != len(files) {
		t.Fatalf("slice union has %d files, want %d", len(union), len(files))
	}
	for name, src := range files {
		if union[name] != src {
			t.Errorf("file %q missing or altered", name)
		}
	}
}
