package service

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

// sinklessSpec is testSpec without the sink: taintedSrc produces no
// findings under it, so a check's finding count tells which store
// generation served it.
func sinklessSpec() *spec.Spec {
	s := spec.New()
	s.Add(propgraph.Source, "flask.request.files['f'].filename")
	s.Add(propgraph.Sanitizer, "werkzeug.secure_filename()")
	return s
}

func writeStore(t *testing.T, path string, sp *spec.Spec, meta specio.Meta) {
	t.Helper()
	if err := specio.Save(path, sp, meta); err != nil {
		t.Fatal(err)
	}
}

func postReload(t *testing.T, url string) (*http.Response, ReloadResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ReloadResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, out
}

func getHealthz(t *testing.T, url string) HealthResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// healthMatchesMetrics fails the test unless every count /v1/healthz
// reports is the /metrics counter of the same name, and every piece of
// state it reads from its owner (cache residency, pins) is the /metrics
// gauge that mirrors it.
func healthMatchesMetrics(t *testing.T, url string) {
	t.Helper()
	h := getHealthz(t, url)
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{
		CounterReloads:      h.Reloads,
		obs.CounterPoolGets: h.Pool.Gets,
	}
	gauges := map[string]int64{}
	if cc := h.CheckCache; cc != nil {
		counts[obs.CounterCheckCacheHits] = cc.Hits
		counts[obs.CounterCheckCacheMisses] = cc.Misses
		counts[obs.CounterCheckCacheEvictions] = cc.Evictions
		counts[obs.CounterCheckCoalesced] = cc.Coalesced
		gauges[obs.GaugeCheckCacheEntries] = cc.Entries
		gauges[obs.GaugeCheckCacheBytes] = cc.Bytes
	}
	if fb := h.Feedback; fb != nil {
		counts[obs.CounterFeedbackAccepted] = fb.Accepted
		counts[obs.CounterFeedbackRejected] = fb.Rejected
		counts[obs.CounterFeedbackResolves] = fb.Resolves
		gauges[obs.GaugeFeedbackPinnedVars] = int64(fb.PinnedVars)
	}
	for name, n := range counts {
		if got := snap.Counters[name]; got != n {
			t.Errorf("healthz counts %d for %s, /metrics %d", n, name, got)
		}
	}
	for name, n := range gauges {
		if got := snap.Gauges[name]; got != float64(n) {
			t.Errorf("healthz reads %d for %s, /metrics gauge %g", n, name, got)
		}
	}
}

func TestReloadSwapsSpecs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.json")
	writeStore(t, path, sinklessSpec(), specio.Meta{Generator: "test", SeedEntries: 2})
	sp, meta, err := specio.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Spec: sp, Meta: meta, StorePath: path})

	if _, out := postCheck(t, ts.URL, taintedSrc); out.Total != 0 {
		t.Fatalf("sinkless store found %d flows, want 0", out.Total)
	}
	before := getHealthz(t, ts.URL)
	if before.StoreFingerprint == "" || before.Schema != specio.SchemaVersion ||
		before.SeedEntries != 2 || before.Reloads != 0 {
		t.Errorf("healthz before reload = %+v", before)
	}

	// Publish a new store with the sink and hot-swap it in.
	writeStore(t, path, testSpec(), specio.Meta{Generator: "test", SeedEntries: 2, LearnedEntries: 1})
	resp, out := postReload(t, ts.URL)
	if resp.StatusCode != http.StatusOK || out.Status != "reloaded" || out.Specs != 3 {
		t.Fatalf("reload = %d %+v", resp.StatusCode, out)
	}
	if out.StoreFingerprint == before.StoreFingerprint {
		t.Error("fingerprint did not change across an effective reload")
	}

	if _, chk := postCheck(t, ts.URL, taintedSrc); chk.Total != 1 {
		t.Errorf("after reload: %d findings, want 1", chk.Total)
	}
	after := getHealthz(t, ts.URL)
	if after.StoreFingerprint != out.StoreFingerprint || after.Specs != 3 ||
		after.LearnedEntries != 1 || after.Reloads != 1 {
		t.Errorf("healthz after reload = %+v", after)
	}

	// Reloading the identical file swaps but reports "unchanged".
	if _, again := postReload(t, ts.URL); again.Status != "unchanged" {
		t.Errorf("idempotent reload status = %q, want unchanged", again.Status)
	}
}

func TestReloadRejectsInvalidStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.json")
	writeStore(t, path, testSpec(), specio.Meta{Generator: "test"})
	sp, meta, err := specio.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Spec: sp, Meta: meta, StorePath: path})
	before := getHealthz(t, ts.URL)

	cases := map[string]string{
		"garbage":       "not json at all{{{",
		"no schema":     `{"meta":{},"sources":[],"sanitizers":[],"sinks":[],"blacklist":[]}`,
		"future schema": `{"schema":99,"meta":{},"sources":[],"sanitizers":[],"sinks":[],"blacklist":[]}`,
		"unknown field": `{"schema":1,"bogus":1,"meta":{},"sources":[],"sanitizers":[],"sinks":[],"blacklist":[]}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			resp, _ := postReload(t, ts.URL)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("status = %d, want 422", resp.StatusCode)
			}
			// The old store keeps serving, fingerprint unchanged.
			h := getHealthz(t, ts.URL)
			if h.StoreFingerprint != before.StoreFingerprint || h.Specs != 3 || h.Reloads != 0 {
				t.Errorf("healthz after rejected reload = %+v", h)
			}
			if _, chk := postCheck(t, ts.URL, taintedSrc); chk.Total != 1 {
				t.Errorf("old specs stopped serving: %d findings, want 1", chk.Total)
			}
		})
	}

	// A deleted store file is rejected the same way.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postReload(t, ts.URL); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("missing file status = %d, want 422", resp.StatusCode)
	}
}

func TestReloadWithoutStorePath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postReload(t, ts.URL)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("status = %d, want 409", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/v1/reload"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/reload status = %d, want 405", resp.StatusCode)
		}
	}
}

// TestReloadUnderConcurrentChecks hammers /v1/check while the store is
// swapped back and forth between a store with the sink and one without.
// Every response must be consistent with exactly one store generation
// (0 or 1 findings, never an error) — run under -race via make race.
func TestReloadUnderConcurrentChecks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.json")
	writeStore(t, path, testSpec(), specio.Meta{Generator: "test"})
	sp, meta, err := specio.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Spec: sp, Meta: meta, StorePath: path, Workers: 4, QueueDepth: 64})

	const checkers, checksEach, reloadsTotal = 4, 25, 20
	var wg sync.WaitGroup
	errs := make(chan string, checkers*checksEach+reloadsTotal)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloadsTotal; i++ {
			if i%2 == 0 {
				specio.Save(path, sinklessSpec(), specio.Meta{Generator: "test"})
			} else {
				specio.Save(path, testSpec(), specio.Meta{Generator: "test"})
			}
			resp, err := http.Post(ts.URL+"/v1/reload", "", nil)
			if err != nil {
				errs <- "reload: " + err.Error()
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- "reload status " + resp.Status
			}
		}
	}()
	for c := 0; c < checkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < checksEach; i++ {
				resp, err := http.Post(ts.URL+"/v1/check", "text/x-python", strings.NewReader(taintedSrc))
				if err != nil {
					errs <- "check: " + err.Error()
					continue
				}
				var out CheckResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					errs <- "check status " + resp.Status
					continue
				}
				if out.Total != 0 && out.Total != 1 {
					errs <- "inconsistent findings"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
