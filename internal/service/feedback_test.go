package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/incr"
	"seldon/internal/propgraph"
	"seldon/internal/specio"
)

// learnedSrc exercises two corpus-learned specification entries:
// request.files['f'].filename is a learned source and shellrun.invoke a
// learned sink, neither seeded, so a verdict against the finding pins
// real variables.
const learnedSrc = `from flask import request
import shellrun

def handler():
    f = request.files['f'].filename
    shellrun.invoke(f)
`

// newFeedbackServer learns a store from the generated corpus inside an
// incremental session and serves it with the session attached.
func newFeedbackServer(t *testing.T) (*Server, string, *incr.Session) {
	t.Helper()
	seed := corpus.ExperimentSeed()
	sess := incr.NewSession(seed, core.Config{Workers: 1})
	for name, src := range corpus.Generate(corpus.Config{Files: 20, Seed: 1}).FileMap() {
		sess.SpliceSource(name, src)
	}
	res, _ := sess.Relearn()
	learned := sess.LearnedSpec()
	if len(res.LearnedEntries(seed)) == 0 {
		t.Fatal("corpus learned no non-seed entries")
	}
	meta := specio.Meta{SeedEntries: seed.Len(), LearnedEntries: len(res.LearnedEntries(seed))}
	s, ts := newTestServer(t, Config{Spec: learned, Meta: meta, Session: sess, Workers: 2})
	return s, ts.URL, sess
}

func postFeedback(t *testing.T, url string, req FeedbackRequest) (*http.Response, FeedbackResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out FeedbackResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, out
}

func getHealth(t *testing.T, url string) HealthResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFeedbackRequiresSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postFeedback(t, ts.URL, FeedbackRequest{Symbol: "x()", Role: "sink", Verdict: "reject"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("feedback without session: status = %d, want 409", resp.StatusCode)
	}
}

func TestFeedbackValidation(t *testing.T) {
	_, url, _ := newFeedbackServer(t)
	cases := []struct {
		name string
		req  FeedbackRequest
		want int
	}{
		{"bad verdict", FeedbackRequest{Symbol: "x()", Role: "sink", Verdict: "maybe"}, http.StatusBadRequest},
		{"no target", FeedbackRequest{Verdict: "accept"}, http.StatusBadRequest},
		{"both targets", FeedbackRequest{FindingID: "ab", Symbol: "x()", Role: "sink", Verdict: "accept"}, http.StatusBadRequest},
		{"bad role", FeedbackRequest{Symbol: "x()", Role: "laundry", Verdict: "accept"}, http.StatusBadRequest},
		{"unknown finding", FeedbackRequest{FindingID: "deadbeefdeadbeefdeadbeef", Verdict: "accept"}, http.StatusNotFound},
		{"seed entry", FeedbackRequest{Symbol: "os.system()", Role: "sink", Verdict: "accept"}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		if resp, _ := postFeedback(t, url, tc.req); resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestFeedbackRejectBySymbol: rejecting a learned entry pins it to 0,
// re-solves incrementally (every span reused, warm start), publishes a
// new generation, and the entry disappears from /v1/specs.
func TestFeedbackRejectBySymbol(t *testing.T) {
	s, url, sess := newFeedbackServer(t)
	before := getHealth(t, url)
	target := sess.Result().LearnedEntries(sess.Seed())[0]

	resp, out := postFeedback(t, url, FeedbackRequest{
		Symbol: target.Rep, Role: target.Role.String(), Verdict: "reject",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Pinned) != 1 || out.Pinned[0].Symbol != target.Rep || out.Pinned[0].Value != 0 {
		t.Fatalf("pinned = %+v", out.Pinned)
	}
	if out.Epoch == before.Epoch || out.Epoch == "" {
		t.Fatalf("epoch did not advance: %q -> %q", before.Epoch, out.Epoch)
	}
	if !out.WarmStarted {
		t.Error("feedback re-solve did not warm-start")
	}
	if out.SpansReused != sess.Len() {
		t.Errorf("re-solve reused %d/%d spans", out.SpansReused, sess.Len())
	}

	st := s.currentStore()
	if st.epoch != out.Epoch {
		t.Errorf("serving epoch %q, response epoch %q", st.epoch, out.Epoch)
	}
	if st.spec.RolesOf(target.Rep).Has(target.Role) {
		t.Errorf("rejected entry %q still in serving store", target.Rep)
	}

	after := getHealth(t, url)
	if after.Feedback == nil {
		t.Fatal("healthz has no feedback block with a session attached")
	}
	if after.Feedback.Rejected != 1 || after.Feedback.Accepted != 0 ||
		after.Feedback.Resolves != 1 || after.Feedback.PinnedVars != 1 {
		t.Errorf("feedback health = %+v", after.Feedback)
	}
	if after.Epoch != out.Epoch {
		t.Errorf("healthz epoch %q, want %q", after.Epoch, out.Epoch)
	}
}

// TestFeedbackFindingLoop is the end-to-end loop: check reports a
// finding over learned entries, a reject verdict against its ID pins
// both endpoints, and a re-check of the identical body under the new
// generation no longer reports the flow — proving the check cache
// invalidated structurally with the store swap. An accept verdict on the
// same finding, in the same server lifetime, then flips the same pins,
// advances the generation a second time and brings the flow back.
func TestFeedbackFindingLoop(t *testing.T) {
	_, url, _ := newFeedbackServer(t)

	resp, out := postCheck(t, url, learnedSrc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check status = %d", resp.StatusCode)
	}
	if out.Total == 0 {
		t.Fatalf("no findings over learned entries: %+v", out)
	}
	f := out.Findings[0]
	if f.ID == "" {
		t.Fatal("finding has no ID")
	}

	// Warm the cache: the identical body must hit.
	resp2, out2 := postCheck(t, url, learnedSrc)
	if resp2.StatusCode != http.StatusOK || out2.Total != out.Total {
		t.Fatalf("repeat check diverged: %d, %+v", resp2.StatusCode, out2)
	}

	fresp, fout := postFeedback(t, url, FeedbackRequest{FindingID: f.ID, Verdict: "reject"})
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status = %d", fresp.StatusCode)
	}
	if len(fout.Pinned) == 0 {
		t.Fatal("verdict pinned nothing")
	}
	for _, p := range fout.Pinned {
		if p.Value != 0 {
			t.Errorf("reject pinned %q to %v, want 0", p.Symbol, p.Value)
		}
	}

	resp3, out3 := postCheck(t, url, learnedSrc)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("re-check status = %d", resp3.StatusCode)
	}
	for _, g := range out3.Findings {
		if g.ID == f.ID {
			t.Fatalf("rejected finding %s still reported after re-solve", f.ID)
		}
	}
	if out3.Total >= out.Total {
		t.Errorf("finding count did not drop: %d -> %d", out.Total, out3.Total)
	}

	aresp, aout := postFeedback(t, url, FeedbackRequest{FindingID: f.ID, Verdict: "accept"})
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("accept status = %d", aresp.StatusCode)
	}
	if aout.Epoch == "" || aout.Epoch == fout.Epoch {
		t.Fatalf("accept did not advance the generation: %q -> %q", fout.Epoch, aout.Epoch)
	}
	if len(aout.Pinned) != len(fout.Pinned) {
		t.Fatalf("accept pinned %+v, reject had pinned %+v", aout.Pinned, fout.Pinned)
	}
	for i, p := range aout.Pinned {
		if p.Symbol != fout.Pinned[i].Symbol || p.Role != fout.Pinned[i].Role || p.Value != 1 {
			t.Errorf("accept pinned %+v over the reject's %+v", p, fout.Pinned[i])
		}
	}
	_, out4 := postCheck(t, url, learnedSrc)
	back := false
	for _, g := range out4.Findings {
		back = back || g.ID == f.ID
	}
	if !back || out4.Total <= out3.Total {
		t.Errorf("accepted finding %s not reported again: %d findings after the reject, %d after the accept", f.ID, out3.Total, out4.Total)
	}
	h := getHealth(t, url)
	if h.Epoch != aout.Epoch {
		t.Errorf("healthz epoch %q, want the accept generation %q", h.Epoch, aout.Epoch)
	}
	if fb := h.Feedback; fb == nil || fb.Accepted != 1 || fb.Rejected != 1 ||
		fb.Resolves != 2 || fb.PinnedVars != len(aout.Pinned) {
		t.Errorf("feedback health after reject then accept = %+v", fb)
	}
}

// TestFeedbackAcceptBySymbol: accepting a not-yet-selected candidate
// pins it to 1 and it appears in the published store.
func TestFeedbackAcceptBySymbol(t *testing.T) {
	s, url, sess := newFeedbackServer(t)
	// Any corpus symbol works; pick one the solver scored below threshold
	// by probing the session's solution through a learned-roles filter.
	res := sess.Result()
	var rep string
	for _, v := range res.System.Vars {
		if v.Role != propgraph.Sink {
			continue
		}
		if sess.Seed().RolesOf(v.Rep).Has(propgraph.Sink) {
			continue
		}
		if sc, ok := sess.Score(v.Rep, propgraph.Sink); ok && sc < 0.1 {
			rep = v.Rep
			break
		}
	}
	if rep == "" {
		t.Skip("no sub-threshold sink candidate in corpus")
	}

	resp, out := postFeedback(t, url, FeedbackRequest{Symbol: rep, Role: "sink", Verdict: "accept"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Pinned) != 1 || out.Pinned[0].Value != 1 {
		t.Fatalf("pinned = %+v", out.Pinned)
	}
	if !s.currentStore().spec.RolesOf(rep).Has(propgraph.Sink) {
		t.Errorf("accepted sink %q missing from serving store", rep)
	}
	if h := getHealth(t, url); h.Feedback == nil || h.Feedback.Accepted != 1 {
		t.Errorf("healthz accepted count wrong: %+v", h.Feedback)
	}
}

// TestFeedbackOnFindingServedFromCache: a finding the server keeps
// answering with stays addressable by /v1/feedback. Its ID was indexed
// when the analysis ran; since then more than maxFindingIndex other
// findings have passed through the index and pushed it out, and every
// later answer has come from the check cache, where nothing used to
// index. The verdict on an ID taken from such an answer must resolve.
func TestFeedbackOnFindingServedFromCache(t *testing.T) {
	s, url, _ := newFeedbackServer(t)
	if _, out := postCheck(t, url, learnedSrc); out.Total == 0 {
		t.Fatalf("no findings over learned entries: %+v", out)
	}
	for i := 0; i <= maxFindingIndex; i++ {
		f := Finding{File: "other.py", Source: "src()", Sink: "sink()", SinkPos: strconv.Itoa(i)}
		f.ID = findingID(&f)
		s.recordFinding(&f)
	}

	before := getHealth(t, url).CheckCache.Hits
	_, out := postCheck(t, url, learnedSrc)
	if hits := getHealth(t, url).CheckCache.Hits; hits != before+1 || out.Total == 0 {
		t.Fatalf("re-check was not a cache hit with findings: hits %d -> %d, %d findings", before, hits, out.Total)
	}
	resp, fout := postFeedback(t, url, FeedbackRequest{FindingID: out.Findings[0].ID, Verdict: "reject"})
	if resp.StatusCode != http.StatusOK || len(fout.Pinned) == 0 {
		t.Fatalf("verdict on a finding served from the cache: status %d, pinned %v", resp.StatusCode, fout.Pinned)
	}
	s.findingMu.Lock()
	n := len(s.findings)
	s.findingMu.Unlock()
	if n > maxFindingIndex {
		t.Errorf("finding index holds %d entries, cap %d", n, maxFindingIndex)
	}
}
