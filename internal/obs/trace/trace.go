// Package trace is the request-scoped half of the observability layer:
// where internal/obs aggregates (counters, histograms), trace answers
// "what happened inside THIS request/run" — every traced operation
// decomposes into a tree of timed, attributed spans under one trace ID.
//
// The design follows the shape of W3C Trace Context / OpenTelemetry
// without the dependency: 16-byte trace IDs and 8-byte span IDs in hex,
// a `traceparent` header in and out, and a bounded in-memory ring of
// recently completed traces served as JSON from /debug/traces.
//
// Like the metrics registry, every method is safe on a nil *Tracer and
// a nil *Span and returns immediately, so instrumented code needs no
// guards: a nil tracer yields nil spans, nil spans yield nil children.
//
// Every request of the service is traced — no sampling, no switch — so
// a trace is built to cost little: see traceBlock.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// DefaultCapacity is the trace-ring size New(0) selects.
	DefaultCapacity = 256
	// maxSpansPerTrace bounds the span records one trace retains; spans
	// beyond it are counted in TraceData.Dropped instead of stored, so a
	// runaway loop cannot grow a trace without bound.
	maxSpansPerTrace = 512
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds an Attr, formatting the value as %v would. The three
// types the serving path passes are rendered without fmt.
func String(key string, value any) Attr {
	var v string
	switch x := value.(type) {
	case string:
		v = x
	case int:
		v = strconv.Itoa(x)
	case bool:
		v = strconv.FormatBool(x)
	default:
		v = fmt.Sprintf("%v", value)
	}
	return Attr{Key: key, Value: v}
}

// SpanData is the immutable record of one finished span.
type SpanData struct {
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// StartUnixNano and DurationNanos place the span in time; child
	// offsets relative to the trace start come from subtracting the
	// trace's own StartUnixNano.
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNanos int64  `json:"duration_ns"`
	Attrs         []Attr `json:"attrs,omitempty"`
}

// TraceData is the immutable record of one finished trace: the root
// span's identity plus every recorded span, in end order (the root is
// always last).
type TraceData struct {
	TraceID       string `json:"trace_id"`
	Root          string `json:"root"` // root span name
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNanos int64  `json:"duration_ns"`
	// RemoteParent marks traces whose root adopted a caller's
	// traceparent; the root span's ParentID then names a span that lives
	// in the caller's process, not in Spans.
	RemoteParent bool       `json:"remote_parent,omitempty"`
	Dropped      int        `json:"dropped_spans,omitempty"`
	Spans        []SpanData `json:"spans"`
}

// Tracer collects finished traces into a bounded ring, newest
// overwriting oldest. A nil *Tracer is a valid no-op sink.
type Tracer struct {
	mu       sync.Mutex
	ring     []TraceData
	next     int
	size     int
	started  int64
	finished int64
}

// New returns a tracer retaining the most recent capacity traces;
// capacity <= 0 selects DefaultCapacity.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{ring: make([]TraceData, capacity)}
}

// Sizes of a trace's one allocation. A /v1/check answered from the cache
// or from another request's analysis opens two child spans (admission,
// encode) and ends three with the root; the root carries three
// attributes (file, store, and cache or coalesced) and a child one. The
// block is sized for exactly that request, because what a trace costs
// is mostly its bytes: every block survives in the ring for 256
// requests. BenchmarkTraceRequest on 2 cores, median of six, ns per
// trace at blockChildren/blockSpans 2/3, 4/7 (the request that runs the
// analysis: four children, two recorded after the fact, the root) and
// 8/12: 1170, 1600 and 2550 for the hit's shape, 1024, 1696 and 3248
// bytes; the analysis's shape is 3150 at 2/3 against 2500 at 4/7, which
// it pays once in a request of 100 µs and more. (One Span per StartChild
// and one ID per span, as before the block: 2600 and 4600.) Past these
// sizes a trace works as it did then — spans and attributes spill to
// the heap one at a time, span IDs are drawn moreSpanIDs at a time.
const (
	blockChildren  = 2
	blockSpans     = 3 // finished-span records, the root's included
	blockRootAttrs = 3
	spareSpanIDs   = blockChildren // drawn with the trace's own IDs
	moreSpanIDs    = 8             // drawn at once when those run out
	traceIDLen     = 32
	spanIDLen      = 16
)

// Offsets into a traceparent header, "00-<trace id>-<span id>-<flags>",
// and into traceBlock.ids, which begins with one.
const (
	traceAt        = len("00-")
	rootAt         = traceAt + traceIDLen + len("-")
	flagsAt        = rootAt + spanIDLen + len("-")
	traceparentLen = flagsAt + 2
	callerAt       = traceparentLen
	spareAt        = callerAt + spanIDLen
	idsLen         = spareAt + spareSpanIDs*spanIDLen
)

// traceBlock is everything one in-flight trace owns, allocated at once:
// the root span, the child spans the request is expected to open, their
// attribute storage, and the records of the spans that have finished.
// Spans of a trace may end on different goroutines (worker handoff), so
// the block carries the trace's lock. Once the root span publishes the
// trace the block is closed: stragglers — e.g. an analysis worker
// still running after its request timed out — are counted as dropped
// rather than recorded, so a published TraceData is never touched again.
type traceBlock struct {
	tracer *Tracer
	// ids is one string holding every identifier of the trace, each a
	// substring of it:
	//
	//	00-<trace id>-<root span id>-01<caller's span id><spare span ids>
	//
	// so the outgoing traceparent header is its head, and a span ID costs
	// no allocation until the spares run out. spare is what is left of it.
	ids    string
	spare  string
	remote bool

	mu       sync.Mutex
	spans    []SpanData // finished spans, in end order; starts out as done[:0]
	dropped  int
	closed   bool
	children int // how many of child are handed out

	root       Span
	child      [blockChildren]Span
	done       [blockSpans]SpanData
	rootAttrs  [blockRootAttrs]Attr
	childAttrs [blockChildren][1]Attr
}

func (b *traceBlock) traceID() string { return b.ids[traceAt : traceAt+traceIDLen] }

// nextID hands out a span ID; b.mu is held.
func (b *traceBlock) nextID() string {
	if len(b.spare) < spanIDLen {
		var hexed [moreSpanIDs * spanIDLen]byte
		randHex(hexed[:])
		b.spare = string(hexed[:])
	}
	id := b.spare[:spanIDLen]
	b.spare = b.spare[spanIDLen:]
	return id
}

// add records a finished span; b.mu is held.
func (b *traceBlock) add(sd SpanData) {
	if b.closed || len(b.spans) >= maxSpansPerTrace {
		b.dropped++
	} else {
		b.spans = append(b.spans, sd)
	}
}

// Span is one in-flight timed operation. Spans are created by
// Tracer.StartRoot/StartRootFrom and Span.StartChild, annotated with
// SetAttr, and closed exactly once with End; a nil *Span no-ops
// everywhere.
type Span struct {
	block  *traceBlock
	id     string
	parent string
	name   string
	start  time.Time

	// Guarded by block.mu.
	attrs []Attr
	ended bool
}

// StartRoot opens a new trace and returns its root span.
func (t *Tracer) StartRoot(name string) *Span {
	return t.startRoot(name, "", "")
}

// StartRootFrom opens a new trace, adopting the trace ID and parent
// span ID of a valid W3C traceparent header; an empty or malformed
// header starts a fresh trace, so callers pass the header through
// unchecked.
func (t *Tracer) StartRootFrom(name, traceparent string) *Span {
	traceID, parentID, ok := ParseTraceparent(traceparent)
	if !ok {
		return t.startRoot(name, "", "")
	}
	return t.startRoot(name, traceID, parentID)
}

func (t *Tracer) startRoot(name, traceID, parentID string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.started++
	t.mu.Unlock()

	// One draw from the random source and one string for the whole trace.
	// An adopted trace copies the caller's two IDs in, so it holds no
	// reference to the header they arrived in.
	var drawn [traceIDLen + (1+spareSpanIDs)*spanIDLen]byte
	randHex(drawn[:])
	var ids [idsLen]byte
	copy(ids[:], "00-")
	copy(ids[traceAt:], drawn[:traceIDLen])
	ids[rootAt-1] = '-'
	copy(ids[rootAt:], drawn[traceIDLen:traceIDLen+spanIDLen])
	copy(ids[rootAt+spanIDLen:], "-01")
	copy(ids[spareAt:], drawn[traceIDLen+spanIDLen:])
	if traceID != "" {
		copy(ids[traceAt:], traceID)
		copy(ids[callerAt:], parentID)
	}

	b := &traceBlock{tracer: t, ids: string(ids[:]), remote: traceID != ""}
	b.spare = b.ids[spareAt:]
	b.spans = b.done[:0]
	s := &b.root
	s.block, s.name, s.attrs = b, name, b.rootAttrs[:0]
	s.id = b.ids[rootAt : rootAt+spanIDLen]
	if b.remote {
		s.parent = b.ids[callerAt:spareAt]
	}
	s.start = time.Now()
	return s
}

// StartChild opens a child span under s, in the same trace.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	b := s.block
	b.mu.Lock()
	var c *Span
	if b.children < len(b.child) {
		c = &b.child[b.children]
		c.attrs = b.childAttrs[b.children][:0]
		b.children++
	} else {
		c = new(Span)
	}
	c.id = b.nextID()
	b.mu.Unlock()
	c.block, c.parent, c.name = b, s.id, name
	c.start = time.Now()
	return c
}

// AddChildAt records an already-completed child span with an explicit
// start time and duration. It exists for stages whose timing is known
// only after the fact — e.g. per-file parse and dataflow totals summed
// by the parallel front-end.
func (s *Span) AddChildAt(name string, start time.Time, d time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	b := s.block
	b.mu.Lock()
	b.add(SpanData{
		SpanID:        b.nextID(),
		ParentID:      s.id,
		Name:          name,
		StartUnixNano: start.UnixNano(),
		DurationNanos: int64(d),
		Attrs:         attrs,
	})
	b.mu.Unlock()
}

// SetAttr annotates the span; the value is formatted as %v would.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	a := String(key, value)
	s.block.mu.Lock()
	if !s.ended { // what a span has recorded is not written to again
		s.attrs = append(s.attrs, a)
	}
	s.block.mu.Unlock()
}

// TraceID returns the 32-hex-digit trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.block.traceID()
}

// SpanID returns the 16-hex-digit span ID ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Traceparent renders the span as an outgoing W3C traceparent header
// ("" on nil), so downstream calls join this trace.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	if s == &s.block.root {
		return s.block.ids[:traceparentLen]
	}
	return FormatTraceparent(s.block.traceID(), s.id)
}

// End closes the span, records it, and — for root spans — publishes
// the finished trace into the tracer's ring. It returns the elapsed
// time; calling End twice records once.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	b := s.block
	b.mu.Lock()
	if s.ended {
		b.mu.Unlock()
		return d
	}
	s.ended = true
	sd := SpanData{
		SpanID:        s.id,
		ParentID:      s.parent,
		Name:          s.name,
		StartUnixNano: s.start.UnixNano(),
		DurationNanos: int64(d),
	}
	if len(s.attrs) > 0 {
		sd.Attrs = s.attrs
	}
	if s != &b.root {
		b.add(sd)
		b.mu.Unlock()
		return d
	}
	// The root goes last, and the trace is published as it stands in
	// the block, without a copy: closing the block makes a child span that
	// ends after the root (timed-out request, worker still running) count
	// as dropped instead of being appended, and an ended span takes no
	// more attributes, so nothing writes to a published — and immutable —
	// trace again. A trace in the ring keeps its block alive, which
	// bounds the ring at its capacity times one block.
	b.spans = append(b.spans, sd)
	b.closed = true
	spans, dropped := b.spans, b.dropped
	b.mu.Unlock()
	b.tracer.push(TraceData{
		TraceID:       b.traceID(),
		Root:          s.name,
		StartUnixNano: s.start.UnixNano(),
		DurationNanos: int64(d),
		RemoteParent:  b.remote,
		Dropped:       dropped,
		Spans:         spans,
	})
	return d
}

func (t *Tracer) push(td TraceData) {
	t.mu.Lock()
	t.ring[t.next] = td
	t.next = (t.next + 1) % len(t.ring)
	if t.size < len(t.ring) {
		t.size++
	}
	t.finished++
	t.mu.Unlock()
}

// Traces returns the retained traces, newest first. The returned
// TraceData values are immutable snapshots and safe to share.
func (t *Tracer) Traces() []TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceData, 0, t.size)
	n := len(t.ring)
	for i := 0; i < t.size; i++ {
		out = append(out, t.ring[(t.next-1-i+2*n)%n])
	}
	return out
}

// TraceByID returns the retained trace with the given ID.
func (t *Tracer) TraceByID(id string) (TraceData, bool) {
	for _, td := range t.Traces() {
		if td.TraceID == id {
			return td, true
		}
	}
	return TraceData{}, false
}

// Stats reports lifetime trace counts and the current ring occupancy.
func (t *Tracer) Stats() (started, finished int64, buffered int) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.started, t.finished, t.size
}

// ParseTraceparent validates a W3C traceparent header
// (version 00: "00-<32 hex>-<16 hex>-<2 hex>") and returns its trace
// and parent-span IDs, substrings of h. All-zero IDs are invalid per
// the spec. It runs on an untrusted header of every request and
// allocates nothing.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	h = strings.TrimSpace(h)
	if len(h) != traceparentLen || h[:traceAt] != "00-" || h[rootAt-1] != '-' || h[flagsAt-1] != '-' {
		return "", "", false
	}
	traceID, spanID = h[traceAt:rootAt-1], h[rootAt:flagsAt-1]
	const zeros = "00000000000000000000000000000000"
	if !isHex(traceID) || !isHex(spanID) || !isHex(h[flagsAt:]) ||
		traceID == zeros || spanID == zeros[:spanIDLen] {
		return "", "", false
	}
	return traceID, spanID, true
}

// FormatTraceparent renders a version-00, sampled traceparent header.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// randHex overwrites dst, whose length is even and at most that of one
// trace's identifiers, with lowercase hex digits drawn from crypto/rand.
// The crypto source never fails on supported platforms; if it somehow
// does, the wall clock keeps IDs unique enough for debugging.
func randHex(dst []byte) {
	var raw [max(traceIDLen+(1+spareSpanIDs)*spanIDLen, moreSpanIDs*spanIDLen) / 2]byte
	b := raw[:len(dst)/2]
	if _, err := rand.Read(b); err != nil {
		now := time.Now().UnixNano()
		for i := range b {
			b[i] = byte(now >> (8 * (i % 8)))
		}
	}
	hex.Encode(dst, b)
}
