package constraints

import "math/bits"

// bitset is a fixed-size bit vector used for per-component reachability.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) or(other bitset) {
	for i := range b {
		b[i] |= other[i]
	}
}

// orChanged is or() that reports whether any bit was newly set, used by
// the fixpoint fallback for cyclic graphs.
func (b bitset) orChanged(other bitset) bool {
	changed := false
	for i := range b {
		if next := b[i] | other[i]; next != b[i] {
			b[i] = next
			changed = true
		}
	}
	return changed
}

// setChanged sets bit i and reports whether it was previously clear.
func (b bitset) setChanged(i int) bool {
	word, mask := i/64, uint64(1)<<(i%64)
	if b[word]&mask != 0 {
		return false
	}
	b[word] |= mask
	return true
}

// appendTo appends every set bit index to dst, ascending.
func (b bitset) appendTo(dst []int) []int {
	for w, word := range b {
		for word != 0 {
			dst = append(dst, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}
