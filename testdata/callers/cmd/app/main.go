package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Stack[int]
	s.Push(1)
	fmt.Println(lib.Total([]lib.Shape{lib.Square{Side: 2}}), lib.Gained())
}
