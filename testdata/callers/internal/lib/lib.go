// Package lib holds one of each declaration the product-caller gate must
// report and one of each it must not.
package lib

// Shape is used by cmd/app.
type Shape interface{ Area() int }

// Square's Area is reached only through Shape.
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// Stack's Push is reached only through an instance, Stack[int].
type Stack[T any] struct{ items []T }

func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// Total is called by cmd/app.
func Total(shapes []Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}

// Gained is allow-listed, but cmd/app calls it.
func Gained() string { return "gained" }

// UnusedExported has no caller.
func UnusedExported() {}

func unusedUnexported() {}

// OnlyTested is called by lib_test.go alone.
func OnlyTested() int { return 1 }

// countdown calls only itself.
func countdown(n int) int {
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// even and odd call only each other.
func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}
