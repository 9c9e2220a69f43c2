package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tr := New(8)
	root := tr.StartRoot("request")
	root.SetAttr("route", "check")
	c1 := root.StartChild("parse")
	time.Sleep(time.Millisecond)
	c1.End()
	c2 := root.StartChild("taint")
	g := c2.StartChild("dedupe")
	g.End()
	c2.End()
	root.AddChildAt("dataflow", time.Now().Add(-time.Millisecond), time.Millisecond,
		String("summed", "per-file"))
	root.End()

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	td := traces[0]
	if td.Root != "request" || len(td.TraceID) != 32 {
		t.Fatalf("trace = %+v", td)
	}
	if len(td.Spans) != 5 {
		t.Fatalf("spans = %d, want 5", len(td.Spans))
	}
	// The root ends last and is the final record.
	last := td.Spans[len(td.Spans)-1]
	if last.Name != "request" || last.ParentID != "" {
		t.Errorf("last span = %+v, want the root", last)
	}
	// Every non-root parent resolves to a recorded span; all spans share
	// the trace ID implicitly (they're in the same TraceData).
	ids := map[string]string{}
	for _, sd := range td.Spans {
		ids[sd.SpanID] = sd.Name
	}
	for _, sd := range td.Spans {
		if sd.ParentID == "" {
			continue
		}
		if _, ok := ids[sd.ParentID]; !ok {
			t.Errorf("span %q has unknown parent %s", sd.Name, sd.ParentID)
		}
	}
	if ids[td.Spans[0].ParentID] != "request" && td.Spans[0].Name != "request" {
		// first finished span (parse) must hang off the root
		t.Errorf("first span parent = %q", ids[td.Spans[0].ParentID])
	}
	// The grandchild hangs off "taint", not the root.
	for _, sd := range td.Spans {
		if sd.Name == "dedupe" && ids[sd.ParentID] != "taint" {
			t.Errorf("dedupe parent = %q, want taint", ids[sd.ParentID])
		}
	}
	tree := td.Tree()
	if !strings.Contains(tree, "request") || !strings.Contains(tree, "    dedupe") {
		t.Errorf("tree rendering:\n%s", tree)
	}
}

func TestRingBound(t *testing.T) {
	tr := New(4)
	for i := 0; i < 7; i++ {
		sp := tr.StartRoot("r")
		sp.SetAttr("i", i)
		sp.End()
	}
	traces := tr.Traces()
	if len(traces) != 4 {
		t.Fatalf("ring holds %d, want 4", len(traces))
	}
	// Newest first: i = 6, 5, 4, 3.
	for k, want := range []string{"6", "5", "4", "3"} {
		root := traces[k].Spans[len(traces[k].Spans)-1]
		if len(root.Attrs) != 1 || root.Attrs[0].Value != want {
			t.Errorf("trace %d attr = %+v, want i=%s", k, root.Attrs, want)
		}
	}
	started, finished, buffered := tr.Stats()
	if started != 7 || finished != 7 || buffered != 4 {
		t.Errorf("stats = %d/%d/%d, want 7/7/4", started, finished, buffered)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(2)
	up := tr.StartRoot("upstream")
	header := up.Traceparent()
	if !strings.HasPrefix(header, "00-") || !strings.HasSuffix(header, "-01") {
		t.Fatalf("traceparent = %q", header)
	}
	down := tr.StartRootFrom("downstream", header)
	if down.TraceID() != up.TraceID() {
		t.Errorf("trace ID not adopted: %s vs %s", down.TraceID(), up.TraceID())
	}
	down.End()
	td, ok := tr.TraceByID(up.TraceID())
	if !ok || !td.RemoteParent {
		t.Errorf("downstream trace = %+v (ok=%v), want remote_parent", td, ok)
	}
	root := td.Spans[len(td.Spans)-1]
	if root.ParentID != up.SpanID() {
		t.Errorf("root parent = %s, want %s", root.ParentID, up.SpanID())
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-short-beef-01",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // wrong version
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",    // 3 parts
		"00-" + strings.Repeat("0", 32) + "-b7ad6b7169203331-01",  // zero trace
		"00-0af7651916cd43dd8448eb211c80319c-" + strings.Repeat("0", 16) + "-01",
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", // uppercase
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
	if id, sp, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"); !ok ||
		id != "0af7651916cd43dd8448eb211c80319c" || sp != "b7ad6b7169203331" {
		t.Errorf("valid header rejected: %q %q %v", id, sp, ok)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	// Every method on the nil span no-ops.
	child := sp.StartChild("y")
	child.SetAttr("k", "v")
	sp.AddChildAt("z", time.Now(), time.Second)
	if sp.End() != 0 || child.End() != 0 {
		t.Error("nil span End != 0")
	}
	if sp.TraceID() != "" || sp.Traceparent() != "" || sp.SpanID() != "" {
		t.Error("nil span has identity")
	}
	if tr.Traces() != nil {
		t.Error("nil tracer has traces")
	}
	if _, ok := tr.TraceByID("abc"); ok {
		t.Error("nil tracer found a trace")
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	tr := New(4)
	sp := tr.StartRoot("r")
	sp.End()
	sp.End()
	_, finished, _ := tr.Stats()
	if finished != 1 {
		t.Errorf("finished = %d, want 1", finished)
	}
}

func TestSpanCapPerTrace(t *testing.T) {
	tr := New(2)
	root := tr.StartRoot("r")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		root.AddChildAt("c", time.Now(), 0)
	}
	root.End()
	td := tr.Traces()[0]
	if len(td.Spans) != maxSpansPerTrace+1 { // + root
		t.Errorf("spans = %d, want %d", len(td.Spans), maxSpansPerTrace+1)
	}
	if td.Dropped != 10 {
		t.Errorf("dropped = %d, want 10", td.Dropped)
	}
}

// TestLateSpanAfterRootEnd pins the publish path against the
// timed-out-request shape: the handler's deferred root.End publishes
// the trace while the analysis goroutine keeps running and ends child
// spans afterwards. Those stragglers must be dropped, not appended —
// appending would write through the published TraceData's backing
// array, mutating a snapshot documented as immutable.
func TestLateSpanAfterRootEnd(t *testing.T) {
	tr := New(2)
	root := tr.StartRoot("r")
	early := root.StartChild("early")
	early.End()
	late := root.StartChild("late")
	root.End()

	late.End()
	root.AddChildAt("later-still", time.Now(), 0)

	td := tr.Traces()[0]
	if len(td.Spans) != 2 {
		t.Fatalf("spans = %d, want 2 (early + root)", len(td.Spans))
	}
	for _, sd := range td.Spans {
		if sd.Name == "late" || sd.Name == "later-still" {
			t.Errorf("straggler span %q recorded after publish", sd.Name)
		}
	}
	if td.Spans[len(td.Spans)-1].Name != "r" {
		t.Errorf("root not last: %+v", td.Spans)
	}
}

// TestLateSpanRace drives the same shape under the race detector:
// stragglers keep ending while readers marshal the published ring.
func TestLateSpanRace(t *testing.T) {
	tr := New(4)
	root := tr.StartRoot("r")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			root.AddChildAt("c", time.Now(), time.Duration(i))
		}
	}()
	root.End()
	for i := 0; i < 200; i++ {
		if traces := tr.Traces(); len(traces) > 0 {
			if _, err := json.Marshal(traces); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestContextHelpers(t *testing.T) {
	tr := New(4)
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context has a span")
	}
	root := tr.StartRoot("outer")
	ctx = NewContext(ctx, root)
	child := FromContext(ctx).StartChild("inner")
	ctx2 := NewContext(ctx, child)
	if FromContext(ctx2) != child || FromContext(ctx) != root {
		t.Error("context rebinding broken")
	}
	if child.TraceID() != root.TraceID() {
		t.Error("child not in parent trace")
	}
	child.End()
	root.End()
	td := tr.Traces()[0]
	if len(td.Spans) != 2 {
		t.Errorf("spans = %d, want 2", len(td.Spans))
	}
}

func TestConcurrentSpansAndScrape(t *testing.T) {
	tr := New(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := tr.StartRoot("r")
				c := root.StartChild("c")
				c.End()
				root.End()
				_ = tr.Traces()
			}
		}()
	}
	wg.Wait()
	_, finished, buffered := tr.Stats()
	if finished != 400 || buffered != 32 {
		t.Errorf("stats = %d finished, %d buffered", finished, buffered)
	}
}

func TestHandler(t *testing.T) {
	tr := New(8)
	for i := 0; i < 3; i++ {
		sp := tr.StartRoot("req")
		sp.StartChild("c").End()
		sp.End()
	}
	id := tr.Traces()[0].TraceID

	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var dump Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if dump.Finished != 3 || len(dump.Traces) != 3 {
		t.Errorf("dump = %+v", dump)
	}

	rec = httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?limit=1", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil || len(dump.Traces) != 1 {
		t.Errorf("limit=1 returned %d traces (err=%v)", len(dump.Traces), err)
	}

	rec = httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace_id="+id, nil))
	var td TraceData
	if err := json.Unmarshal(rec.Body.Bytes(), &td); err != nil || td.TraceID != id {
		t.Errorf("by id: %+v (err=%v)", td, err)
	}

	rec = httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace_id=nope", nil))
	if rec.Code != 404 {
		t.Errorf("unknown id status = %d", rec.Code)
	}

	// Nil tracer: an empty, valid dump.
	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil || len(dump.Traces) != 0 {
		t.Errorf("nil dump: %+v (err=%v)", dump, err)
	}
}

// TestIDsBeyondTheBlock opens more spans than a trace's block holds and
// records more than it drew IDs for: every span must still come out
// with a well-formed ID of its own, parented where it was opened.
func TestIDsBeyondTheBlock(t *testing.T) {
	tr := New(2)
	root := tr.StartRoot("r")
	const live, after = 3 * blockChildren, 3 * blockSpans
	for i := 0; i < live; i++ {
		c := root.StartChild("live")
		c.SetAttr("i", i)
		c.SetAttr("again", true) // one more than a child's inline attribute
		c.End()
	}
	for i := 0; i < after; i++ {
		root.AddChildAt("after", time.Now(), 0)
	}
	for i := 0; i <= blockRootAttrs; i++ {
		root.SetAttr("k", i)
	}
	root.End()

	td := tr.Traces()[0]
	if len(td.Spans) != live+after+1 || td.Dropped != 0 {
		t.Fatalf("%d spans, %d dropped, want %d and 0", len(td.Spans), td.Dropped, live+after+1)
	}
	if len(td.TraceID) != traceIDLen || !isHex(td.TraceID) {
		t.Errorf("trace ID %q", td.TraceID)
	}
	rootSD := td.Spans[len(td.Spans)-1]
	if rootSD.SpanID != root.SpanID() || len(rootSD.Attrs) != blockRootAttrs+1 {
		t.Errorf("root record = %+v", rootSD)
	}
	seen := map[string]bool{}
	for i, sd := range td.Spans {
		if len(sd.SpanID) != spanIDLen || !isHex(sd.SpanID) || seen[sd.SpanID] {
			t.Errorf("span %d: ID %q malformed or repeated", i, sd.SpanID)
		}
		seen[sd.SpanID] = true
		if sd.Name != "r" && sd.ParentID != rootSD.SpanID {
			t.Errorf("span %d: parent %q, want the root %q", i, sd.ParentID, rootSD.SpanID)
		}
		if sd.Name == "live" && (len(sd.Attrs) != 2 || sd.Attrs[0].Value != strconv.Itoa(i) || sd.Attrs[1].Value != "true") {
			t.Errorf("span %d: attrs %v", i, sd.Attrs)
		}
	}
	if got, want := root.Traceparent(), FormatTraceparent(td.TraceID, rootSD.SpanID); got != want {
		t.Errorf("root traceparent %q, want %q", got, want)
	}
}

// TestAttrFormatting: whatever the type, an attribute reads as %v.
func TestAttrFormatting(t *testing.T) {
	type named int
	for _, v := range []any{"s", "", 0, -7, 1 << 40, true, false, int64(9), uint8(3), 2.5, named(4),
		time.Second, []int{1, 2}, nil, struct{ A int }{1}} {
		if got, want := String("k", v).Value, fmt.Sprintf("%v", v); got != want {
			t.Errorf("String(%T %v) = %q, want %q", v, v, got, want)
		}
	}
}

// BenchmarkTraceRequest is what one /v1/check costs in this package, by
// the shape of its trace: "hit" opens and ends two children and sets
// four attributes (a cache hit, a coalesced follower), "analysis" opens
// four, records two after the fact and sets four (the request that runs
// the analysis). The block's size constants were chosen with it.
func BenchmarkTraceRequest(b *testing.B) {
	run := func(b *testing.B, analysis bool) {
		tr := New(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			root := tr.StartRootFrom("http.check", "")
			_, _ = root.TraceID(), root.Traceparent()
			adm := root.StartChild("admission")
			adm.SetAttr("body_bytes", 2100+i&1)
			adm.End()
			root.SetAttr("file", "request.py")
			root.SetAttr("store", "0123456789abcdef0123456789abcdef")
			if analysis {
				root.StartChild("queue").End()
				root.AddChildAt("parse", time.Now(), time.Microsecond)
				root.AddChildAt("dataflow", time.Now(), time.Microsecond)
				ts := root.StartChild("taint")
				ts.SetAttr("findings", 1)
				ts.End()
			} else {
				root.SetAttr("cache", "hit")
			}
			root.StartChild("encode").End()
			root.End()
		}
	}
	b.Run("hit", func(b *testing.B) { run(b, false) })
	b.Run("analysis", func(b *testing.B) { run(b, true) })
}
