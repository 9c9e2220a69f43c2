package seldon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/obs"
	"seldon/internal/obs/trace"
	"seldon/internal/propgraph"
	"seldon/internal/service"
	"seldon/internal/specio"
	"seldon/internal/taint"
)

// TestServeLearnedSpecs drives the serving flow the binaries compose:
// learn specifications from a corpus (seldon), persist them as a spec
// store (-o), reload the store, boot the service on a random port
// (seldond -specs specs.json -addr :0 -workers 4), and check a request
// end-to-end — asserting the service returns exactly the findings the
// `seldon check` pipeline reports for the same input, and that request
// counters and latency timers land in the /metrics snapshot. Then it
// serves the corpus under concurrency: every file once from several
// goroutines, each a distinct body and so a miss through parse →
// dataflow → taint on the server's workers, and every file again, each a
// cache hit that must answer what its miss did.
func TestServeLearnedSpecs(t *testing.T) {
	// Learning phase (seldon learn -generate 60 -o specs.json).
	c := corpus.Generate(corpus.Config{Files: 60, Seed: 7})
	files := c.FileMap()
	seed := corpus.ExperimentSeed()
	res := core.LearnFromSources(files, seed, core.Config{Workers: 1})
	learned := res.LearnedSpec(seed)
	meta := specio.Meta{
		CorpusFingerprint: specio.Fingerprint(files),
		CorpusFiles:       len(files),
		Events:            res.Graph.ComputeStats().Events,
		SeedEntries:       seed.Len(),
		LearnedEntries:    learned.Len() - seed.Len(),
		Generator:         "seldon",
	}
	storePath := filepath.Join(t.TempDir(), "specs.json")
	if err := specio.Save(storePath, learned, meta); err != nil {
		t.Fatal(err)
	}

	// The store is byte-stable: a second save is identical.
	first, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := specio.Save(storePath, learned, meta); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("two consecutive saves of the spec store differ")
	}

	// Serving phase (seldond -specs specs.json -addr :0).
	loaded, loadedMeta, err := specio.Load(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if !specio.Equal(loaded, learned) {
		t.Fatal("store round trip changed the learned spec")
	}
	if loadedMeta != meta {
		t.Fatalf("store meta round trip: %+v != %+v", loadedMeta, meta)
	}
	reg := obs.New()
	srv := service.New(service.Config{Spec: loaded, Meta: loadedMeta, Metrics: reg, Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpSrv, errc, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// A connection the client dialed and then did not need is idle to
		// the client but new to the server, which Shutdown waits 5 s on:
		// close it from the client's end first.
		http.DefaultClient.CloseIdleConnections()
		shctx, shcancel := context.WithTimeout(ctx, 5*time.Second)
		defer shcancel()
		httpSrv.Shutdown(shctx)
		<-errc
	}()
	base := "http://" + httpSrv.Addr

	// A request the learned specification must flag: the corpus seed
	// lists flask.request.args.get() as source and os.system() as sink.
	const input = `from flask import request
import os

def handler():
    cmd = request.args.get('cmd')
    os.system(cmd)
`
	resp, err := http.Post(base+"/v1/check?filename=app.py", "text/x-python", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check status = %d", resp.StatusCode)
	}
	var out service.CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}

	// Reference: the `seldon check` pipeline over the same single file with
	// the same store.
	fe := core.AnalyzeFiles(map[string]string{"app.py": input}, core.Config{Workers: 1})
	want := taint.Analyze(propgraph.Union(fe.Graphs...), loaded)
	if len(want) == 0 {
		t.Fatal("reference pipeline found nothing — corpus seed changed?")
	}
	if out.Total != len(want) || len(out.Findings) != len(want) {
		t.Fatalf("service found %d flows, seldon check pipeline %d", out.Total, len(want))
	}
	for i, w := range want {
		got := out.Findings[i]
		if got.Source != w.SourceRep || got.Sink != w.SinkRep ||
			got.Category != string(w.Category) ||
			got.SourcePos != w.SourcePos.String() || got.SinkPos != w.SinkPos.String() {
			t.Errorf("finding %d: service %+v != pipeline %+v", i, got, w)
		}
	}

	// The spec lookup serves the learned entries with provenance.
	var specs service.SpecsResponse
	getJSON(t, base+"/v1/specs?role=sink", &specs)
	if specs.Count != len(loaded.Sinks) || specs.Meta.CorpusFingerprint != meta.CorpusFingerprint {
		t.Errorf("specs = count %d (want %d), meta %+v", specs.Count, len(loaded.Sinks), specs.Meta)
	}

	// Service latency and request counters are visible in /metrics.
	var snap obs.Snapshot
	getJSON(t, base+"/metrics", &snap)
	if snap.Timers[service.TimerRoutePrefix+"check"].Count != 1 {
		t.Errorf("check counter = %d", snap.Timers[service.TimerRoutePrefix+"check"].Count)
	}
	if lat := snap.Timers[service.TimerRoutePrefix+"check"]; lat.Count != 1 || lat.P95 <= 0 {
		t.Errorf("check latency timer = %+v", lat)
	}

	// The corpus under concurrency: misses, then the same bodies as hits.
	names := slices.Sorted(maps.Keys(files))
	misses := checkAll(t, base, names, files)
	hits := checkAll(t, base, names, files)
	if t.Failed() {
		t.FailNow()
	}
	flows := 0
	for i, name := range names {
		if hits[i] != misses[i] {
			t.Errorf("%s: repeat answered\n%s\nfirst answer\n%s", name, hits[i], misses[i])
		}
		var out service.CheckResponse
		if err := json.Unmarshal([]byte(misses[i]), &out); err != nil || out.File != name {
			t.Fatalf("%s: answer %q (%v)", name, misses[i], err)
		}
		flows += out.Total
	}
	if flows == 0 {
		t.Error("no corpus file has a flow under the learned store")
	}
	var health service.HealthResponse
	getJSON(t, base+"/v1/healthz", &health)
	n := int64(len(names))
	if cc := health.CheckCache; cc == nil || cc.Misses != 1+n || cc.Hits != n {
		t.Errorf("check cache = %+v, want %d misses (the first check and one per file) and %d hits", cc, 1+n, n)
	}
	var dump trace.Dump
	getJSON(t, base+"/debug/traces?limit=1", &dump)
	if dump.Buffered == 0 {
		t.Errorf("trace ring is empty after %d checks", 1+2*n)
	}
}

// checkAll posts each named file's source to /v1/check from four
// goroutines and returns the answers in name order, with the two fields
// that vary per request (elapsed_ms, trace_id) masked. An answer that is
// not a 200 fails the test.
func checkAll(t *testing.T, base string, names []string, files map[string]string) []string {
	out := make([]string, len(names))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(names); i = int(next.Add(1)) - 1 {
				resp, err := http.Post(base+"/v1/check?filename="+url.QueryEscape(names[i]),
					"text/x-python", strings.NewReader(files[names[i]]))
				if err != nil {
					t.Errorf("%s: %v", names[i], err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d, %v: %s", names[i], resp.StatusCode, err, body)
					return
				}
				body = elapsedField.ReplaceAll(body, []byte(`"elapsed_ms":0`))
				out[i] = string(traceIDField.ReplaceAll(body, []byte(`"trace_id":""`)))
			}
		}()
	}
	wg.Wait()
	return out
}

var (
	elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9eE.+-]+`)
	traceIDField = regexp.MustCompile(`"trace_id":"[0-9a-f]*"`)
)

// getJSON decodes the JSON answer to a GET of url into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
