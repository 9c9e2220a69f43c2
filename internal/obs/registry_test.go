package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := New()
	r.Add("files", 0) // materializes at zero
	r.Add("files", 3)
	r.Add("files", 2)
	r.Set("vars", 17.5)
	r.Set("vars", 18)
	s := r.Snapshot()
	if got := s.Counters["files"]; got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := s.Gauges["vars"]; got != 18 {
		t.Errorf("gauge = %v, want 18", got)
	}
	if got := r.Counter("files"); got != 5 {
		t.Errorf("Counter(files) = %d, want the snapshot's 5", got)
	}
	if got := r.Counter("never"); got != 0 {
		t.Errorf("Counter of an unused name = %d, want 0", got)
	}
}

func TestAddZeroMaterializesCounter(t *testing.T) {
	r := New()
	r.Add(CounterParseErrors, 0)
	s := r.Snapshot()
	if v, ok := s.Counters[CounterParseErrors]; !ok || v != 0 {
		t.Fatalf("counter not materialized: %v (present=%v)", v, ok)
	}
}

func TestTimerStatsExactAndQuantiles(t *testing.T) {
	r := New()
	// 1..1000 in a scrambled but deterministic order.
	n := 1000
	for i := 0; i < n; i++ {
		v := float64((i*379)%n + 1)
		r.Observe("lat", v)
	}
	st := r.Snapshot().Timers["lat"]
	if st.Count != int64(n) {
		t.Errorf("count = %d, want %d", st.Count, n)
	}
	if want := float64(n*(n+1)) / 2; st.Sum != want {
		t.Errorf("sum = %v, want %v", st.Sum, want)
	}
	if st.Min != 1 || st.Max != float64(n) {
		t.Errorf("min/max = %v/%v, want 1/%d", st.Min, st.Max, n)
	}
	if math.Abs(st.P50-500) > 25 {
		t.Errorf("p50 = %v, want ~500", st.P50)
	}
	if math.Abs(st.P95-950) > 25 {
		t.Errorf("p95 = %v, want ~950", st.P95)
	}
}

func TestTimerDecimationKeepsQuantilesUsable(t *testing.T) {
	r := New()
	n := 100_000 // far beyond maxTimerSamples → several stride doublings
	for i := 0; i < n; i++ {
		r.Observe("lat", float64((i*7919)%n))
	}
	r.mu.Lock()
	sampleLen := len(r.timers["lat"].sample)
	r.mu.Unlock()
	if sampleLen > maxTimerSamples {
		t.Fatalf("sample grew past cap: %d > %d", sampleLen, maxTimerSamples)
	}
	st := r.Snapshot().Timers["lat"]
	if st.Count != int64(n) {
		t.Errorf("count = %d, want %d", st.Count, n)
	}
	// Decimated quantiles stay within a few percent of truth.
	if math.Abs(st.P50-float64(n)/2) > 0.05*float64(n) {
		t.Errorf("p50 = %v, want ~%v", st.P50, n/2)
	}
	if math.Abs(st.P95-0.95*float64(n)) > 0.05*float64(n) {
		t.Errorf("p95 = %v, want ~%v", st.P95, int(0.95*float64(n)))
	}
}

func TestTraceAppendAndCap(t *testing.T) {
	r := New()
	n := 3 * maxTracePoints
	for i := 0; i < n; i++ {
		r.AppendTrace("conv", int64(i), map[string]float64{"obj": float64(n - i)})
	}
	pts := r.Snapshot().Traces["conv"]
	if len(pts) == 0 || len(pts) > maxTracePoints {
		t.Fatalf("trace length %d, want in (0, %d]", len(pts), maxTracePoints)
	}
	if pts[0].Step != 0 {
		t.Errorf("first step = %d, want 0", pts[0].Step)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Step <= pts[i-1].Step {
			t.Fatalf("steps not increasing at %d: %d then %d", i, pts[i-1].Step, pts[i].Step)
		}
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Add("c", 1)
	r.Set("g", 2)
	r.Observe("t", 3)
	r.ObserveDuration("t", time.Second)
	r.AppendTrace("tr", 1, nil)
	if d := r.Start("span").End(); d != 0 {
		t.Errorf("nil span elapsed = %v, want 0", d)
	}
	if got := r.Counter("c"); got != 0 {
		t.Errorf("nil Counter = %d, want 0", got)
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Timers)+len(s.Traces) != 0 {
		t.Errorf("nil snapshot not empty: %+v", s)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Add("parse.errors", 4)
	r.Set("constraints.vars", 123)
	for i := 1; i <= 10; i++ {
		r.Observe("stage.solve", float64(i))
	}
	r.AppendTrace(TraceSolver, 1, map[string]float64{"objective": 2.5, "l1": 0.5})
	want := r.Snapshot()
	data, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(*want, got) {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v", *want, got)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := New()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add("ops", 1)
				r.Set("last", float64(i))
				r.Observe("lat", float64(i))
				r.AppendTrace("tr", int64(i), map[string]float64{"v": float64(w)})
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["ops"]; got != workers*per {
		t.Errorf("ops = %d, want %d", got, workers*per)
	}
	if got := s.Timers["lat"].Count; got != workers*per {
		t.Errorf("lat count = %d, want %d", got, workers*per)
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := New()
	sp := r.Start("stage.solve")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Errorf("elapsed = %v, want > 0", d)
	}
	st := r.Snapshot().Timers["stage.solve"]
	if st.Count != 1 || st.Sum <= 0 {
		t.Errorf("timer = %+v, want one positive sample", st)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := New()
	r.Add("parse.errors", 2)
	mux := NewServeMux(r)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if s.Counters["parse.errors"] != 2 {
		t.Errorf("snapshot counter = %d, want 2", s.Counters["parse.errors"])
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Errorf("/debug/pprof/ status = %d", rec.Code)
	}
}

func TestLoggerFormat(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b)
	l.Log("stage.parse", "files", 3, "errors", 0)
	l.Log("bare")
	out := b.String()
	if !strings.Contains(out, "stage.parse files=3 errors=0") {
		t.Errorf("log line malformed: %q", out)
	}
	if !strings.Contains(out, "bare") {
		t.Errorf("bare line missing: %q", out)
	}
	var nilL *Logger
	nilL.Log("ignored", "k", "v") // must not panic
}
