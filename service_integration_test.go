package seldon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/service"
	"seldon/internal/specio"
	"seldon/internal/taint"
)

// TestServeLearnedSpecs drives the serving flow the binaries compose:
// learn specifications from a corpus (seldon), persist them as a spec
// store (-o), reload the store, boot the service on a random port
// (seldond -specs specs.json -addr :0), and check a request end-to-end —
// asserting the service returns exactly the findings the `seldon check`
// pipeline reports for the same input, and that request counters and
// latency timers land in the /metrics snapshot.
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
	srv := service.New(service.Config{Spec: loaded, Meta: loadedMeta, Metrics: reg})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpSrv, errc, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
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
	sresp, err := http.Get(base + "/v1/specs?role=sink")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var specs service.SpecsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&specs); err != nil {
		t.Fatal(err)
	}
	if specs.Count != len(loaded.Sinks) || specs.Meta.CorpusFingerprint != meta.CorpusFingerprint {
		t.Errorf("specs = count %d (want %d), meta %+v", specs.Count, len(loaded.Sinks), specs.Meta)
	}

	// Service latency and request counters are visible in /metrics.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters[service.CounterRequests+".check"] != 1 {
		t.Errorf("check counter = %d", snap.Counters[service.CounterRequests+".check"])
	}
	if lat := snap.Timers[service.TimerCheck]; lat.Count != 1 || lat.P95 <= 0 {
		t.Errorf("check latency timer = %+v", lat)
	}
}
