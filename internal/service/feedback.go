package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/specio"
)

// The continuous-learning loop (POST /v1/feedback). An operator reviews
// a /v1/check finding and sends a verdict — accept ("this flow is
// real") or reject ("false positive") — against either the finding's ID
// or a (symbol, role) pair directly. The verdict pins the corresponding
// specification variables as hard LP constraints in the server's
// incremental-learning session (Config.Session), the session re-solves
// warm-started against the cached constraint blocks, and the re-learned
// store is published as a new immutable generation through the same
// swap machinery /v1/reload uses — so the check-result cache
// invalidates structurally (stale generations stop being addressable)
// and in-flight checks keep the snapshot they admitted with.
//
// Seed entries are ground truth: the session refuses to pin an endpoint
// whose seed already assigns it the role in question (incr.Session.Pin),
// so feedback can extend and prune the learned store but cannot
// contradict the seed.

// maxFindingIndex bounds the finding-ID index. IDs are recorded as
// /v1/check computes findings and evicted FIFO; a verdict against an
// evicted (or never-seen) ID answers 404 and can be re-sent by symbol.
const maxFindingIndex = 4096

// feedbackTarget is what a finding ID resolves to: the two endpoint
// representations a verdict pins.
type feedbackTarget struct {
	source string
	sink   string
}

// findingID derives the deterministic content hash /v1/check stamps on
// each finding: sha256 over the identifying fields, truncated to 12
// bytes of hex. Trace text is excluded — the same flow with and without
// ?trace=1 is the same finding.
func findingID(f *Finding) string {
	h := sha256.New()
	for _, part := range []string{f.File, f.Source, f.Sink, f.SourcePos, f.SinkPos, f.Category} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:12])
}

// recordFinding indexes a finding's endpoints under its ID for later
// verdicts, evicting the oldest entries beyond maxFindingIndex. No-op
// without a session (nothing could consume the index).
func (s *Server) recordFinding(f *Finding) {
	if s.cfg.Session == nil {
		return
	}
	s.findingMu.Lock()
	defer s.findingMu.Unlock()
	if _, ok := s.findings[f.ID]; ok {
		return
	}
	s.findings[f.ID] = feedbackTarget{source: f.Source, sink: f.Sink}
	s.findingOrder = append(s.findingOrder, f.ID)
	for len(s.findingOrder) > maxFindingIndex {
		delete(s.findings, s.findingOrder[0])
		s.findingOrder = s.findingOrder[1:]
	}
}

// reindexFindings records the findings of a check answered from the
// cache. recordFinding otherwise runs only where findings are computed,
// so an ID the server is still answering with would fall out of the
// index once maxFindingIndex newer ones had passed through it, and a
// verdict on it would be refused as never reported. No-op without a
// session, like the index itself.
func (s *Server) reindexFindings(core []byte) {
	if s.cfg.Session == nil {
		return
	}
	var cc checkCore
	if json.Unmarshal(core, &cc) != nil {
		return // the cache holds only what check encoded
	}
	for i := range cc.Findings {
		s.recordFinding(&cc.Findings[i])
	}
}

// FeedbackRequest is the POST /v1/feedback body: a verdict against
// either a finding ID (from a /v1/check response) or a (symbol, role)
// pair directly.
type FeedbackRequest struct {
	FindingID string `json:"finding_id,omitempty"`
	Symbol    string `json:"symbol,omitempty"`
	Role      string `json:"role,omitempty"`
	// Verdict is "accept" or "reject".
	Verdict string `json:"verdict"`
}

// PinnedVar is one (symbol, role) variable a verdict pinned, echoed in
// the response.
type PinnedVar struct {
	Symbol string  `json:"symbol"`
	Role   string  `json:"role"`
	Value  float64 `json:"value"`
}

// FeedbackResponse is the POST /v1/feedback response body: what was
// pinned and the store generation the re-solve published.
type FeedbackResponse struct {
	Status  string      `json:"status"` // "relearned"
	Verdict string      `json:"verdict"`
	Pinned  []PinnedVar `json:"pinned"`
	// The new serving generation (same identity /v1/healthz reports).
	StoreFingerprint string `json:"store_fingerprint"`
	Epoch            string `json:"epoch"`
	Specs            int    `json:"specs"`
	// Re-solve economics: how much of the constraint build the delta
	// cache supplied and what the warm start saved.
	SpansReused  int  `json:"spans_reused"`
	WarmStarted  bool `json:"warm_started"`
	SolverEpochs int  `json:"solver_epochs"`
	EpochsSaved  int  `json:"epochs_saved"`
}

// handleFeedback implements POST /v1/feedback. Resolution: a finding_id
// pins (source symbol, source role) and (sink symbol, sink role); a
// (symbol, role) pair pins exactly that variable. accept pins to 1,
// reject to 0. Pins targeting seed-assigned roles are skipped — the
// seed is ground truth — and a verdict whose every pin was skipped
// answers 422 without re-solving. Re-solves are serialized; each
// publishes a new store generation.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, "feedback", http.StatusMethodNotAllowed, "POST a feedback verdict")
		return
	}
	sess := s.cfg.Session
	if sess == nil {
		s.fail(w, "feedback", http.StatusConflict,
			"server has no learning session (start seldond with -session-dir)")
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.fail(w, "feedback", http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	var req FeedbackRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.fail(w, "feedback", http.StatusBadRequest, "decoding verdict: "+err.Error())
		return
	}
	if req.Verdict != "accept" && req.Verdict != "reject" {
		s.fail(w, "feedback", http.StatusBadRequest, `verdict must be "accept" or "reject"`)
		return
	}
	val := 0.0
	if req.Verdict == "accept" {
		val = 1.0
	}

	// Resolve the verdict to (symbol, role) pins.
	type pinReq struct {
		sym  string
		role propgraph.Role
	}
	var want []pinReq
	switch {
	case req.FindingID != "" && (req.Symbol != "" || req.Role != ""):
		s.fail(w, "feedback", http.StatusBadRequest, "give finding_id or (symbol, role), not both")
		return
	case req.FindingID != "":
		s.findingMu.Lock()
		target, ok := s.findings[req.FindingID]
		s.findingMu.Unlock()
		if !ok {
			s.fail(w, "feedback", http.StatusNotFound,
				"unknown finding_id (evicted or never reported); send the verdict by symbol instead")
			return
		}
		want = []pinReq{{target.source, propgraph.Source}, {target.sink, propgraph.Sink}}
	case req.Symbol != "" && req.Role != "":
		role, ok := propgraph.ParseRole(req.Role)
		if !ok {
			s.fail(w, "feedback", http.StatusBadRequest, "role must be source, sanitizer, or sink")
			return
		}
		want = []pinReq{{req.Symbol, role}}
	default:
		s.fail(w, "feedback", http.StatusBadRequest, "give finding_id or both symbol and role")
		return
	}

	// Pin, re-solve, publish — one verdict at a time. The session
	// serializes internally too, but the mutex keeps pin→relearn→publish
	// atomic so two concurrent verdicts cannot interleave a publish with
	// the other's pins half-applied.
	s.feedbackMu.Lock()
	defer s.feedbackMu.Unlock()
	resp := &FeedbackResponse{Status: "relearned", Verdict: req.Verdict, Pinned: []PinnedVar{}}
	for _, p := range want {
		if sess.Pin(p.sym, p.role, val) {
			resp.Pinned = append(resp.Pinned, PinnedVar{Symbol: p.sym, Role: p.role.String(), Value: val})
		}
	}
	if len(resp.Pinned) == 0 {
		// The session recorded nothing, so there is nothing to re-solve
		// or publish.
		s.fail(w, "feedback", http.StatusUnprocessableEntity,
			"every endpoint of this verdict is a seed entry; nothing to pin")
		return
	}
	res, st := sess.Relearn()
	learned := sess.LearnedSpec()
	seed := sess.Seed()
	meta := specio.Meta{
		CorpusFiles:    sess.Len(),
		Events:         len(res.Graph.Events),
		SeedEntries:    seed.Len(),
		LearnedEntries: len(res.LearnedEntries(seed)),
		Generator:      "seldond/feedback",
	}
	fp, err := specio.FingerprintStore(learned, meta)
	if err != nil {
		s.fail(w, "feedback", http.StatusInternalServerError, "fingerprinting re-learned store: "+err.Error())
		return
	}
	s.swapStore(storeState{spec: learned, meta: meta, fingerprint: fp, epoch: fp, loadedAt: time.Now()})

	if req.Verdict == "accept" {
		s.feedbackAccepted.Add(1)
		s.cfg.Metrics.Add(obs.CounterFeedbackAccepted, 1)
	} else {
		s.feedbackRejected.Add(1)
		s.cfg.Metrics.Add(obs.CounterFeedbackRejected, 1)
	}
	s.feedbackResolves.Add(1)
	s.cfg.Metrics.Add(obs.CounterFeedbackResolves, 1)

	resp.StoreFingerprint = fp
	resp.Epoch = fp
	resp.Specs = learned.Len()
	resp.SpansReused = st.Delta.SpansReused
	resp.WarmStarted = st.WarmStarted
	resp.SolverEpochs = res.SolverEpochs
	resp.EpochsSaved = st.EpochsSaved
	s.cfg.Log.Log("feedback.applied", "verdict", req.Verdict, "pins", len(resp.Pinned),
		"specs", learned.Len(), "epoch", fp, "spans_reused", st.Delta.SpansReused,
		"epochs", res.SolverEpochs, "epochs_saved", st.EpochsSaved)
	s.writeJSON(w, http.StatusOK, resp)
}
