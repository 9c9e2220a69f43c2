package dataflow

import (
	"seldon/internal/arena"
	"seldon/internal/propgraph"
)

// Retention caps applied by Reset, sized like pyparse's: what a
// sixteen-file check body grows is kept, what a rare huge module grew is
// let go.
const (
	maxArenaBytes = 64 << 10 // per arena
	maxBufferLen  = 4096     // per plain buffer, in elements
	maxPooledMaps = 192      // per map pool
	maxMapLen     = 32       // a pooled map that held more entries is let go
)

// Scratch holds everything an analysis allocates besides the graph it
// returns: abstract objects and object sets, symbolic paths and their
// segments, environments and their maps, per-function records, the
// working buffers of set union and event collection, and the builder the
// graph grows in until it is copied out. The zero value is
// ready to use; AnalyzeModule resets it on entry, so between calls it
// may retain references from the previous module — call Reset to scrub a
// pooled scratch on release. Not safe for concurrent use. The graph an
// analysis returns never points into its scratch.
type Scratch struct {
	imports map[string][]string // local alias -> qualified path segments
	order   []*funcDef          // all registered functions, in source order

	objects  arena.Arena[object]
	sets     arena.Arena[*object] // object-set backings
	paths    arena.Arena[sympath]
	strs     arena.Arena[string] // path segments, import paths, parameter orders
	ints     arena.Arena[int]    // parameter event IDs
	envs     arena.Arena[env]
	funcEnvs arena.Arena[funcEnv]
	funcDefs arena.Arena[funcDef]

	vars      mapPool[binding]
	bound     mapPool[uint8]
	funcs     mapPool[*funcDef]
	fieldMaps mapPool[[]*object]

	graph propgraph.Builder

	stamp     uint32   // current visit stamp; object.mark and eventMark compare against it
	eventMark []uint32 // per event ID: last stamp that collected it
	events    []int    // collectEvents result
	names     []string // collect's stack of sorted field names
	tmp       []*object
	operands  [][]*object // object sets of binary operands or display elements awaiting one union
	reps      []string    // representations of the event being added
}

// buffers lists the scratch's arenas, map pools and graph builder.
func (s *Scratch) buffers() [13]arena.Buffer {
	return [...]arena.Buffer{
		&s.objects, &s.sets, &s.paths, &s.strs, &s.ints, &s.envs, &s.funcEnvs, &s.funcDefs,
		&s.vars, &s.bound, &s.funcs, &s.fieldMaps, &s.graph,
	}
}

// Reset takes back everything the last analysis allocated and scrubs the
// buffers. Capacity is kept up to the retention caps; Reset returns how
// many buffers it let go for exceeding them.
func (s *Scratch) Reset() (dropped int) {
	if len(s.imports) > maxMapLen {
		s.imports = nil
		dropped++
	}
	clear(s.imports)
	s.stamp = 0
	for _, b := range s.buffers() {
		if b.Reset(maxArenaBytes) {
			dropped++
		}
	}
	for _, d := range [...]bool{
		resetBuffer(&s.order), resetBuffer(&s.eventMark), resetBuffer(&s.events),
		resetBuffer(&s.names), resetBuffer(&s.tmp), resetBuffer(&s.operands), resetBuffer(&s.reps),
	} {
		if d {
			dropped++
		}
	}
	return dropped
}

// Retained returns the bytes of buffer capacity the scratch holds, maps
// not counted.
func (s *Scratch) Retained() int {
	n := 8*(cap(s.order)+cap(s.events)+cap(s.tmp)) + 4*cap(s.eventMark) + 16*(cap(s.names)+cap(s.reps)) +
		24*cap(s.operands)
	for _, b := range s.buffers() {
		n += b.Bytes()
	}
	return n
}

// Poison overwrites every buffer of the scratch with garbage; see
// arena.Arena.Poison. The scratch must be Reset before its next use.
func (s *Scratch) Poison() {
	for _, b := range s.buffers() {
		b.Poison()
	}
	arena.PoisonSlice(s.order)
	arena.PoisonSlice(s.eventMark)
	arena.PoisonSlice(s.events)
	arena.PoisonSlice(s.names)
	arena.PoisonSlice(s.tmp)
	arena.PoisonSlice(s.operands)
	arena.PoisonSlice(s.reps)
}

// resetBuffer empties *b, zeroing its elements, and lets it go when it
// outgrew maxBufferLen. Beyond its length a buffer holds nothing but
// stale integers and pointers into this scratch's own arenas.
func resetBuffer[T any](b *[]T) (dropped bool) {
	if cap(*b) > maxBufferLen {
		*b = nil
		return true
	}
	clear(*b)
	*b = (*b)[:0]
	return false
}

func (s *Scratch) nextStamp() uint32 {
	s.stamp++
	return s.stamp
}

func (s *Scratch) newObject(event int) *object {
	o := s.objects.New()
	o.event = event
	return o
}

// one returns the singleton set {o}.
func (s *Scratch) one(o *object) []*object {
	set := s.sets.Alloc(1)
	set[0] = o
	return set
}

// opaque returns a set holding one fresh object no event produced.
func (s *Scratch) opaque() []*object { return s.one(s.newObject(-1)) }

func (s *Scratch) newEnv() *env {
	e := s.envs.New()
	e.sc = s
	return e
}

func (s *Scratch) newPath(param string, ctx *propgraph.RepContext, segs []string, pure bool) *sympath {
	p := s.paths.New()
	*p = sympath{param: param, ctx: ctx, segs: segs, pure: pure}
	return p
}

// mapPool recycles maps of one value type: get hands out an empty map,
// reset clears the ones handed out and makes them available again.
type mapPool[V any] struct {
	maps []map[string]V
	next int // maps[:next] are in use
}

func (p *mapPool[V]) get() map[string]V {
	if p.next == len(p.maps) {
		p.maps = append(p.maps, make(map[string]V))
	}
	m := p.maps[p.next]
	p.next++
	return m
}

// Reset, Bytes and Poison make a mapPool an arena.Buffer; the byte cap
// does not apply to maps, the two map caps do.
func (p *mapPool[V]) Reset(int) (dropped bool) {
	keep := p.maps[:0]
	for _, m := range p.maps {
		if len(m) <= maxMapLen && len(keep) < maxPooledMaps {
			clear(m)
			keep = append(keep, m)
		}
	}
	dropped = len(keep) < len(p.maps)
	clear(p.maps[len(keep):])
	p.maps, p.next = keep, 0
	return dropped
}

func (p *mapPool[V]) Bytes() int { return 8 * cap(p.maps) }

// Poison puts one garbage entry in every map.
func (p *mapPool[V]) Poison() {
	var v [1]V
	arena.PoisonSlice(v[:])
	for _, m := range p.maps {
		m["\xffPOISON\xff"] = v[0]
	}
}
