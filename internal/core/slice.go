package core

import "sort"

// Deterministic corpus slicing for distributed learning (internal/shard):
// a corpus is partitioned into contiguous blocks of its sorted file-name
// order, so the concatenation of slices 0..n-1 is exactly the order a
// single-process run analyzes in. That contiguity — not just disjointness
// — is what makes a coordinator's merged graph byte-identical to the
// one-process union: event IDs and symbol-table order both follow file
// order.

// SliceNames returns slice i of n over names (which must be sorted): the
// contiguous block [i*len/n, (i+1)*len/n). Slices are deterministic,
// disjoint, exhaustive, and balanced to within one element; out-of-range
// or degenerate (i, n) returns nil. The result aliases names.
func SliceNames(names []string, i, n int) []string {
	if n <= 0 || i < 0 || i >= n {
		return nil
	}
	lo := i * len(names) / n
	hi := (i + 1) * len(names) / n
	return names[lo:hi]
}

// SliceFiles restricts a corpus map to slice i of n of its sorted names.
func SliceFiles(files map[string]string, i, n int) map[string]string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	part := SliceNames(names, i, n)
	out := make(map[string]string, len(part))
	for _, name := range part {
		out[name] = files[name]
	}
	return out
}
