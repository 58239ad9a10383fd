// The versioned /v1 API surface.  The three query routes — /v1/query,
// /v1/corpus/query, /v1/prepared/{id} — converge on one response envelope
// regardless of language or route:
//
//	{
//	  "results":    [{"doc", "doc_version", "node", "answer"?, "score"?}, ...],
//	  "total":      <results before any limit cut>,
//	  "truncated":  <true when a limit dropped results>,
//	  "version":    "v1",
//	  "request_id": "<the X-Request-ID echo>"
//	}
//
// node is always the selected node (the answer head when the result is a
// tuple); answer appears only for tuple-producing languages (cq, twig);
// score appears only on ranked routes (LangSimilar) and is the tree edit
// distance — lower is closer, 0 is an exact match.
//
// Errors are uniform across the whole server:
//
//	{"error": "...", "code": "<stable enum>", "request_id": "...",
//	 "retry_after_s": <hint, retryable statuses only>}
package server

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/service"
)

// APIVersion is the version tag stamped into every /v1 response envelope.
const APIVersion = "v1"

// Stable machine-readable error codes carried in the unified error body.
// Clients should branch on these, not on the human-readable error text.
const (
	CodeBadRequest = "bad_request" // malformed body, query text, or document
	CodeNotFound   = "not_found"   // unknown document or prepared query
	CodeConflict   = "conflict"    // duplicate document
	CodeTooLarge   = "too_large"   // request body over the configured bound
	CodeSaturated  = "saturated"   // shed by the admission gate
	CodeTimeout    = "timeout"     // request deadline exceeded
	CodeCanceled   = "canceled"    // client closed the connection
	CodeInternal   = "internal"    // unexpected server-side failure
)

// errorCode maps an HTTP status onto the stable error-code enum.
func errorCode(status int) string {
	switch status {
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusTooManyRequests:
		return CodeSaturated
	case http.StatusGatewayTimeout:
		return CodeTimeout
	case 499:
		return CodeCanceled
	default:
		if status >= 500 {
			return CodeInternal
		}
		return CodeBadRequest
	}
}

// resultEntryJSON is one element of the envelope's results array.
type resultEntryJSON struct {
	Doc        string  `json:"doc"`
	DocVersion uint64  `json:"doc_version"`
	Node       int32   `json:"node"`
	Answer     []int32 `json:"answer,omitempty"`
	Score      *int    `json:"score,omitempty"`
}

// envelopeJSON is the unified /v1 ranked-result envelope.
type envelopeJSON struct {
	Results   []resultEntryJSON `json:"results"`
	Total     int               `json:"total"`
	Truncated bool              `json:"truncated"`
	Version   string            `json:"version"`
	RequestID string            `json:"request_id"`
	// Route-specific extras.
	ID      string         `json:"id,omitempty"`      // prepared-query id
	Docs    int            `json:"docs,omitempty"`    // corpus fan-out width
	Plan    *planJSON      `json:"plan,omitempty"`    // on request / prepared
	Failed  []docErrorJSON `json:"failed,omitempty"`  // corpus partial failures
	Timings map[string]any `json:"timings,omitempty"` // ?debug=timings echo
}

// fillEnvelope flattens one document's core.Result into the envelope: ranked
// hits carry a score, node lists are bare, answer tuples carry the full tuple
// with the head as the selected node.  Only the first limit entries (all of
// them when limit is 0) are built; total counts every match regardless.
func fillEnvelope(env *envelopeJSON, doc string, version uint64, res *core.Result, limit int) {
	env.Version = APIVersion
	env.Results = []resultEntryJSON{} // the envelope's results is never null
	if res == nil {
		return
	}
	env.Total = len(res.Hits) + len(res.Nodes) + len(res.Answers)
	keep := env.Total
	if limit > 0 && keep > limit {
		keep = limit
		env.Truncated = true
	}
	if keep == 0 {
		return
	}
	hits := res.Hits[:min(keep, len(res.Hits))]
	nodes := res.Nodes[:min(keep-len(hits), len(res.Nodes))]
	answers := res.Answers[:min(keep-len(hits)-len(nodes), len(res.Answers))]
	out := make([]resultEntryJSON, 0, keep)
	for _, h := range hits {
		score := h.Distance
		out = append(out, resultEntryJSON{
			Doc: doc, DocVersion: version, Node: int32(h.Node), Score: &score,
		})
	}
	for _, n := range nodes {
		out = append(out, resultEntryJSON{Doc: doc, DocVersion: version, Node: int32(n)})
	}
	for _, a := range answers {
		tuple := make([]int32, len(a))
		for i, n := range a {
			tuple[i] = int32(n)
		}
		e := resultEntryJSON{Doc: doc, DocVersion: version, Answer: tuple}
		if len(tuple) > 0 {
			e.Node = tuple[0]
		}
		out = append(out, e)
	}
	env.Results = out
}

// handleQueryV1 is POST /v1/query: one document, any language, envelope out.
func (s *Server) handleQueryV1(w http.ResponseWriter, r *http.Request) {
	tr := obsv.TraceFrom(r.Context())
	start := time.Now()
	var req queryRequest
	if err := decodeJSONBody(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	res, plan, version, err := s.svc.QueryVersioned(ctx, req.Doc, req.Lang, req.Query)
	s.observeQuery(tr, "query", req.Lang, req.Query, start, err)
	if err != nil {
		s.writeError(w, errorStatus(err), err)
		return
	}
	env := envelopeJSON{RequestID: tr.ID()}
	fillEnvelope(&env, req.Doc, version, res, req.Limit)
	if req.Plan {
		env.Plan = toPlanJSON(plan)
	}
	if debugTimings(r) {
		env.Timings = timingsJSON(tr)
	}
	s.writeJSON(w, http.StatusOK, env)
}

// handleCorpusQueryV1 is POST /v1/corpus/query: the fan-out route.  Ranked
// (similar) queries merge per-document k-heaps into a corpus-wide top-k —
// the Aggregate already interleaves hits in (distance, doc, node) order, so
// the envelope's results are globally ranked, not grouped by document.
func (s *Server) handleCorpusQueryV1(w http.ResponseWriter, r *http.Request) {
	tr := obsv.TraceFrom(r.Context())
	start := time.Now()
	var req corpusQueryRequest
	if err := decodeJSONBody(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	var opts []service.CorpusOption
	if req.DocTimeoutMS > 0 {
		opts = append(opts, service.WithDocTimeout(time.Duration(req.DocTimeoutMS)*time.Millisecond))
	}
	execStart := time.Now()
	results := s.svc.QueryCorpus(ctx, req.Lang, req.Query, opts...)
	tr.Observe("exec", time.Since(execStart))
	aggStart := time.Now()
	agg := service.Aggregate(results, req.Limit)
	tr.Observe("aggregate", time.Since(aggStart))
	tr.SetDocs(agg.Docs)
	s.fanoutDocs.Observe(float64(agg.Docs))
	s.observeQuery(tr, "corpus", req.Lang, req.Query, start, nil)

	versions := s.svc.Versions()
	entries := make([]resultEntryJSON, 0, len(agg.Hits)+len(agg.Nodes)+len(agg.Answers))
	for _, h := range agg.Hits {
		score := h.Distance
		entries = append(entries, resultEntryJSON{
			Doc: h.Doc, DocVersion: versions[h.Doc], Node: int32(h.Node), Score: &score,
		})
	}
	for _, n := range agg.Nodes {
		entries = append(entries, resultEntryJSON{Doc: n.Doc, DocVersion: versions[n.Doc], Node: int32(n.Node)})
	}
	for _, a := range agg.Answers {
		tuple := make([]int32, len(a.Answer))
		for i, n := range a.Answer {
			tuple[i] = int32(n)
		}
		e := resultEntryJSON{Doc: a.Doc, DocVersion: versions[a.Doc], Answer: tuple}
		if len(tuple) > 0 {
			e.Node = tuple[0]
		}
		entries = append(entries, e)
	}
	env := envelopeJSON{RequestID: tr.ID(), Docs: agg.Docs}
	// Aggregate already applied the limit per kind; recompute nothing, just
	// carry its accounting through.
	env.Results = entries
	env.Total = agg.Total
	env.Truncated = agg.Truncated
	env.Version = APIVersion
	if env.Results == nil {
		env.Results = []resultEntryJSON{}
	}
	if len(agg.Failed) > 0 {
		failed := make([]docErrorJSON, len(agg.Failed))
		for i, f := range agg.Failed {
			failed[i] = docErrorJSON{Doc: f.Doc, Error: fmt.Sprintf("%s (request_id=%s)", f.Err.Error(), tr.ID())}
		}
		env.Failed = failed
	}
	if debugTimings(r) {
		env.Timings = timingsJSON(tr)
	}
	s.writeJSON(w, http.StatusOK, env)
}

// handleExecPreparedV1 is POST /v1/prepared/{id}: execute a registered
// prepared query on its document's current revision, envelope out (limit via
// the ?limit query parameter).
func (s *Server) handleExecPreparedV1(w http.ResponseWriter, r *http.Request) {
	tr := obsv.TraceFrom(r.Context())
	start := time.Now()
	id := r.PathValue("id")
	e, ok := s.lookupPrepared(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("server: unknown prepared query %q", id))
		return
	}
	eng, version, err := s.svc.EngineVersion(e.doc)
	if err != nil {
		s.writeError(w, errorStatus(err), err)
		return
	}
	ctx, cancel := s.requestContext(r, queryTimeoutMS(r))
	defer cancel()
	execStart := time.Now()
	res, plan, err := e.c.Exec(ctx, eng)
	tr.Observe("exec", time.Since(execStart))
	s.observeQuery(tr, "prepared", e.c.Language(), e.c.Text(), start, err)
	if err != nil {
		s.writeError(w, errorStatus(err), err)
		return
	}
	env := envelopeJSON{RequestID: tr.ID(), ID: e.id, Plan: toPlanJSON(plan)}
	fillEnvelope(&env, e.doc, version, res, queryLimit(r))
	if debugTimings(r) {
		env.Timings = timingsJSON(tr)
	}
	s.writeJSON(w, http.StatusOK, env)
}

// queryLimit reads the optional ?limit parameter of GET-parameterized routes.
func queryLimit(r *http.Request) int {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return 0
	}
	n, err := parseNonNegativeInt(v)
	if err != nil {
		return 0
	}
	return n
}

func parseNonNegativeInt(s string) (int, error) {
	n := 0
	if s == "" {
		return 0, fmt.Errorf("empty")
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, fmt.Errorf("not a number: %q", s)
		}
		n = n*10 + int(s[i]-'0')
		if n > 1<<30 {
			return 1 << 30, nil
		}
	}
	return n, nil
}
