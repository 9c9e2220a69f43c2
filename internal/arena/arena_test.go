package arena

import "testing"

type node struct {
	name string
	id   int
	next *node
	kids []*node
	ok   bool
}

func (n *node) zero() bool {
	return n.name == "" && n.id == 0 && n.next == nil && n.kids == nil && !n.ok
}

func TestNewAndAllocHandOutDistinctZeroedMemory(t *testing.T) {
	var a Arena[node]
	seen := map[*node]bool{}
	for i := 0; i < 5000; i++ {
		p := a.New()
		if !p.zero() {
			t.Fatalf("New #%d not zeroed: %+v", i, *p)
		}
		if seen[p] {
			t.Fatalf("New #%d returned a pointer twice", i)
		}
		seen[p] = true
		p.id, p.name = i, "x"
	}
	run := a.Alloc(3000) // larger than any chunk
	if len(run) != 3000 || cap(run) != 3000 {
		t.Fatalf("Alloc(3000): len %d cap %d", len(run), cap(run))
	}
	for i := range run {
		if run[i].id != 0 || seen[&run[i]] {
			t.Fatalf("Alloc run overlaps earlier memory at %d", i)
		}
	}
	if a.Alloc(0) != nil {
		t.Fatal("Alloc(0) is not nil")
	}
}

// An append to a run must reallocate, never grow into the next run.
func TestAllocRunsHaveNoSpareCapacity(t *testing.T) {
	var a Arena[int]
	x := a.Alloc(2)
	y := a.Alloc(2)
	x = append(x, 7)
	if y[0] != 0 {
		t.Fatal("append to one run wrote into the next")
	}
	if c := a.Copy([]int{1, 2, 3}); len(c) != 3 || cap(c) != 3 || c[2] != 3 {
		t.Fatalf("Copy = %v (cap %d)", c, cap(c))
	}
}

func TestResetRecyclesAndScrubs(t *testing.T) {
	var a Arena[node]
	fill := func() {
		for i := 0; i < 300; i++ {
			a.New().name = "kept"
		}
		a.Alloc(40)[39].id = 9
	}
	fill()
	before := a.Bytes()
	if a.Reset(1 << 20) {
		t.Fatal("Reset under the cap dropped chunks")
	}
	if a.Bytes() != before {
		t.Fatalf("Reset changed retained bytes: %d -> %d", before, a.Bytes())
	}
	if avg := testing.AllocsPerRun(10, func() { fill(); a.Reset(1 << 20) }); avg != 0 {
		t.Fatalf("refilling a reset arena allocates %.1f times", avg)
	}
	for i := 0; i < 340; i++ {
		if p := a.New(); !p.zero() {
			t.Fatalf("recycled element %d not scrubbed: %+v", i, *p)
		}
	}
}

func TestResetDropsBeyondCap(t *testing.T) {
	var a Arena[node]
	a.Alloc(100000)
	for i := 0; i < 100; i++ {
		a.New()
	}
	limit := 64 << 10
	if !a.Reset(limit) {
		t.Fatal("Reset did not report the drop")
	}
	if got := a.Bytes(); got > limit {
		t.Fatalf("retained %d bytes, cap %d", got, limit)
	}
	a.New().id = 1 // still usable
}

func TestPoison(t *testing.T) {
	var a Arena[node]
	p := a.New()
	q := a.New()
	*p = node{name: "live", id: 1, next: q, kids: []*node{q}}
	a.Poison()
	if p.name == "live" || p.id == 1 || p.next != nil || p.kids != nil || !p.ok {
		t.Fatalf("element survived Poison: %+v", *p)
	}
	buf := make([]uint32, 2, 8)
	PoisonSlice(buf)
	if buf[:8][7] != 0xa5a5a5a5 {
		t.Fatalf("PoisonSlice left %x in spare capacity", buf[:8][7])
	}
}
