// Package arena is the chunked allocator behind the front-end's
// recyclable memory (DESIGN.md, "Front-end memory").
//
// An Arena hands out zeroed values and runs of one element type from
// chunks it owns. There is one allocation path: carve from the current
// chunk, take the next retained chunk when it is exhausted, make a new
// chunk when none is left. What differs between callers is only who
// keeps the Arena. A parse or analysis given no scratch uses a fresh
// Arena, so its chunks belong to the result and the collector frees
// them with it; a scratch keeps its Arenas, Reset rewinds them, and the
// next file is carved from the same chunks.
package arena

import (
	"reflect"
	"unsafe"
)

// Chunks double from firstChunk elements up to maxChunk, so a small
// input costs a few small allocations and a large one is not carved in
// thousands of pieces.
const (
	firstChunk = 16
	maxChunk   = 2048
)

// Arena allocates values of type T. The zero value is ready to use. An
// Arena serves one goroutine at a time.
type Arena[T any] struct {
	free   []T   // uncarved tail of the chunk being carved
	chunks [][]T // retained chunks, in carve order
	next   int   // chunks[:next] have been carved from since the last Reset
}

// New returns a pointer to a zeroed T that stays valid until Reset.
func (a *Arena[T]) New() *T {
	if len(a.free) == 0 {
		a.advance(1)
	}
	p := &a.free[0]
	a.free = a.free[1:]
	return p
}

// Alloc returns a zeroed run of n elements with no spare capacity (an
// append to it reallocates instead of growing into a neighbour), valid
// until Reset. Alloc(0) is nil.
func (a *Arena[T]) Alloc(n int) []T {
	if n == 0 {
		return nil
	}
	for len(a.free) < n {
		a.advance(n)
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// Copy returns a run holding a copy of src.
func (a *Arena[T]) Copy(src []T) []T {
	s := a.Alloc(len(src))
	copy(s, src)
	return s
}

// advance makes a.free a chunk not yet carved since the last Reset: the
// next retained one (abandoning what is left of the current chunk), or a
// new one of at least n elements.
func (a *Arena[T]) advance(n int) {
	if a.next == len(a.chunks) {
		size := min(firstChunk<<min(len(a.chunks), 16), maxChunk)
		a.chunks = append(a.chunks, make([]T, max(size, n)))
	}
	a.free = a.chunks[a.next]
	a.next++
}

// Reset takes back everything handed out: carved chunks are zeroed (so
// they hold no reference to the previous input and New/Alloc need not
// clear) and carving restarts at the first chunk. Chunks are retained
// for reuse up to maxBytes in total; Reset reports whether it let any go.
func (a *Arena[T]) Reset(maxBytes int) (dropped bool) {
	for _, c := range a.chunks[:a.next] {
		clear(c)
	}
	var zero T
	budget := maxBytes / int(max(unsafe.Sizeof(zero), 1))
	keep := 0
	for keep < len(a.chunks) && len(a.chunks[keep]) <= budget {
		budget -= len(a.chunks[keep])
		keep++
	}
	if keep < len(a.chunks) {
		clear(a.chunks[keep:])
		a.chunks = a.chunks[:keep]
		dropped = true
	}
	a.free, a.next = nil, 0
	return dropped
}

// Bytes returns the size of the retained chunks.
func (a *Arena[T]) Bytes() int {
	n := 0
	for _, c := range a.chunks {
		n += len(c)
	}
	var zero T
	return n * int(unsafe.Sizeof(zero))
}

// Poison overwrites every element of every retained chunk with garbage:
// integers get a loud bit pattern, strings a marker, and pointers,
// interfaces, slices and maps become nil, so anything still reading the
// arena after its owner was done with it sees wrong data or faults. It
// is the aliasing tests' hook.
func (a *Arena[T]) Poison() {
	var v T
	poison(reflect.ValueOf(&v).Elem())
	for _, c := range a.chunks {
		for i := range c {
			c[i] = v
		}
	}
}

// PoisonSlice is Poison for a plain buffer, over its whole capacity.
func PoisonSlice[T any](b []T) {
	var v T
	poison(reflect.ValueOf(&v).Elem())
	b = b[:cap(b)]
	for i := range b {
		b[i] = v
	}
}

func poison(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(0x5a5a5a5a5a5a5a5a >> (64 - v.Type().Bits()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(0xa5a5a5a5a5a5a5a5 >> (64 - v.Type().Bits()))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("\xffPOISON\xff")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				poison(f)
			} else {
				// Unexported field: reach it through its address.
				poison(reflect.NewAt(f.Type(), f.Addr().UnsafePointer()).Elem())
			}
		}
	}
}

// Buffer is what a scratch needs of each of its arenas, whatever their
// element types.
type Buffer interface {
	Reset(maxBytes int) (dropped bool)
	Bytes() int
	Poison()
}
