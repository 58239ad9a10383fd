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
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/service"
	"repro/internal/tree"
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

// envelope is the unified /v1 ranked-result envelope apart from its results
// array, which the handlers append straight into an envWriter.  The fields
// follow "results" on the wire in this order, with "version" between
// Truncated and RequestID; the route-specific extras after RequestID are
// omitted when zero.
type envelope struct {
	Total     int            // "total": results before any limit cut
	Truncated bool           // "truncated": a limit dropped results
	RequestID string         // "request_id": the X-Request-ID echo
	ID        string         // "id": prepared-query id
	Docs      int            // "docs": corpus fan-out width
	Plan      *core.Plan     // "plan": on request / prepared
	Failed    []docErrorJSON // "failed": corpus partial failures
	Timings   map[string]any // "timings": ?debug=timings echo
}

// envWriter appends one /v1 envelope into a reused buffer: the results
// entries straight from the documents' own results, then the envelope's
// fields.  Only the failures and the debug timings go through encoding/json.
// The bytes are those encoding/json produces for the same envelope with HTML
// escaping off (FuzzEnvelopeEncoding holds the two equal).
type envWriter struct{ buf []byte }

// envWriters holds pointers, so Put does not box; a buffer grown past
// maxPooledEnvelope by one large answer is dropped instead of pinned.
var envWriters = sync.Pool{New: func() any { return new(envWriter) }}

const maxPooledEnvelope = 1 << 20

// newEnvWriter takes a writer from the pool with the results array opened.
func newEnvWriter() *envWriter {
	w := envWriters.Get().(*envWriter)
	w.reset()
	return w
}

// reset starts a new envelope in w's buffer.
func (w *envWriter) reset() {
	w.buf = append(w.buf[:0], `{"results":[`...)
}

func (w *envWriter) release() {
	if cap(w.buf) <= maxPooledEnvelope {
		envWriters.Put(w)
	}
}

// Write appends p, so encoding/json can encode into the buffer.
func (w *envWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// entry opens one results element, {"doc":…,"doc_version":…,"node":, and
// returns the span of that prefix in the buffer, so later entries of the
// same document can copy it instead of escaping the name again.
func (w *envWriter) entry(doc string, version uint64) (start, end int) {
	if w.buf[len(w.buf)-1] != '[' {
		w.buf = append(w.buf, ',')
	}
	start = len(w.buf)
	w.buf = append(w.buf, `{"doc":`...)
	w.buf = appendString(w.buf, doc)
	w.buf = append(w.buf, `,"doc_version":`...)
	w.buf = strconv.AppendUint(w.buf, version, 10)
	w.buf = append(w.buf, `,"node":`...)
	return start, len(w.buf)
}

// again opens the next element of the document whose prefix is buf[start:end].
func (w *envWriter) again(start, end int) {
	w.buf = append(w.buf, ',')
	w.buf = append(w.buf, w.buf[start:end]...)
}

// hit appends one ranked match; score is the tree edit distance.
func (w *envWriter) hit(doc string, version uint64, node tree.NodeID, score int) {
	w.entry(doc, version)
	w.buf = strconv.AppendInt(w.buf, int64(node), 10)
	w.buf = append(w.buf, `,"score":`...)
	w.buf = strconv.AppendInt(w.buf, int64(score), 10)
	w.buf = append(w.buf, '}')
}

// matches appends one document's node matches, bare, and its answer tuples,
// each with its head as the selected node (0 for the empty tuple of a
// Boolean query, which carries no "answer").
func (w *envWriter) matches(doc string, version uint64, nodes []tree.NodeID, answers []cq.Answer) {
	if len(nodes)+len(answers) == 0 {
		return
	}
	start, end := w.entry(doc, version)
	for i, n := range nodes {
		if i > 0 {
			w.again(start, end)
		}
		w.buf = strconv.AppendInt(w.buf, int64(n), 10)
		w.buf = append(w.buf, '}')
	}
	for i, a := range answers {
		if i > 0 || len(nodes) > 0 {
			w.again(start, end)
		}
		if len(a) == 0 {
			w.buf = append(w.buf, "0}"...)
			continue
		}
		w.buf = strconv.AppendInt(w.buf, int64(a[0]), 10)
		w.buf = append(w.buf, `,"answer":[`...)
		for j, n := range a {
			if j > 0 {
				w.buf = append(w.buf, ',')
			}
			w.buf = strconv.AppendInt(w.buf, int64(n), 10)
		}
		w.buf = append(w.buf, "]}"...)
	}
}

// result appends one document's core.Result: ranked hits carry a score, node
// lists are bare, answer tuples carry the full tuple.  Only the first limit
// entries (all of them when limit is 0) are written; env.Total counts every
// match regardless.
func (w *envWriter) result(env *envelope, doc string, version uint64, res *core.Result, limit int) {
	if res == nil {
		return
	}
	env.Total = len(res.Hits) + len(res.Nodes) + len(res.Answers)
	keep := env.Total
	if limit > 0 && keep > limit {
		keep = limit
		env.Truncated = true
	}
	hits := res.Hits[:min(keep, len(res.Hits))]
	nodes := res.Nodes[:min(keep-len(hits), len(res.Nodes))]
	answers := res.Answers[:min(keep-len(hits)-len(nodes), len(res.Answers))]
	for _, h := range hits {
		w.hit(doc, version, h.Node, h.Distance)
	}
	w.matches(doc, version, nodes, answers)
}

// corpus appends an aggregated fan-out: the ranked hits first, already
// interleaved in (distance, doc, node) order, so a similar query's results
// are globally ranked, not grouped by document; then the node and answer
// matches document by document.  Every entry is labelled with the version its
// document was executed against.
func (w *envWriter) corpus(agg *service.CorpusResult) {
	for _, h := range agg.Hits {
		w.hit(h.Doc, h.Version, h.Node, h.Distance)
	}
	for _, p := range agg.Parts {
		w.matches(p.Doc, p.Version, p.Nodes, p.Answers)
	}
}

// finish closes the results array and appends env's fields and the newline
// json.Encoder ends a value with.
func (w *envWriter) finish(env *envelope) {
	w.buf = append(w.buf, `],"total":`...)
	w.buf = strconv.AppendInt(w.buf, int64(env.Total), 10)
	w.buf = append(w.buf, `,"truncated":`...)
	w.buf = strconv.AppendBool(w.buf, env.Truncated)
	w.buf = append(w.buf, `,"version":"`+APIVersion+`","request_id":`...)
	w.buf = appendString(w.buf, env.RequestID)
	if env.ID != "" {
		w.buf = append(w.buf, `,"id":`...)
		w.buf = appendString(w.buf, env.ID)
	}
	if env.Docs != 0 {
		w.buf = append(w.buf, `,"docs":`...)
		w.buf = strconv.AppendInt(w.buf, int64(env.Docs), 10)
	}
	if env.Plan != nil {
		w.buf = append(w.buf, `,"plan":`...)
		w.plan(env.Plan)
	}
	if len(env.Failed) > 0 {
		w.buf = append(w.buf, `,"failed":`...)
		w.json(env.Failed)
	}
	if len(env.Timings) > 0 {
		w.buf = append(w.buf, `,"timings":`...)
		w.json(env.Timings)
	}
	w.buf = append(w.buf, "}\n"...)
}

// plan appends p in its planJSON wire form.
func (w *envWriter) plan(p *core.Plan) {
	w.buf = append(w.buf, `{"language":`...)
	w.buf = appendString(w.buf, p.Language)
	w.buf = append(w.buf, `,"technique":`...)
	w.buf = appendString(w.buf, p.Technique)
	if notes := p.AllNotes(); len(notes) > 0 {
		w.buf = append(w.buf, `,"notes":[`...)
		for i, n := range notes {
			if i > 0 {
				w.buf = append(w.buf, ',')
			}
			w.buf = appendString(w.buf, n)
		}
		w.buf = append(w.buf, ']')
	}
	w.buf = append(w.buf, `,"prepare_ns":`...)
	w.buf = strconv.AppendInt(w.buf, int64(p.PrepareDuration), 10)
	w.buf = append(w.buf, `,"exec_ns":`...)
	w.buf = strconv.AppendInt(w.buf, int64(p.ExecDuration), 10)
	w.buf = append(w.buf, '}')
}

// json appends v through encoding/json, without the trailing newline.
func (w *envWriter) json(v any) {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(fmt.Sprintf("server: encoding %T: %v", v, err)) // only plain data reaches here
	}
	w.buf = w.buf[:len(w.buf)-1]
}

// appendString appends s as a JSON string, byte for byte as encoding/json
// writes it with HTML escaping off: '"', '\\' and control bytes escaped,
// each invalid UTF-8 byte replaced by \ufffd, U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte { return appendQuoted(b, s, true) }

// appendQuoted is appendString, and with shortBF false appendLogString:
// encoding/json writes '\b' and '\f' as \b and \f, log/slog as \u0008 and
// \u000c.
func appendQuoted(b []byte, s string, shortBF bool) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			i++
			if c >= 0x20 && c != '"' && c != '\\' {
				continue
			}
			b = append(b, s[start:i-1]...)
			switch {
			case c == '"' || c == '\\':
				b = append(b, '\\', c)
			case c == '\b' && shortBF:
				b = append(b, '\\', 'b')
			case c == '\f' && shortBF:
				b = append(b, '\\', 'f')
			case c == '\n':
				b = append(b, '\\', 'n')
			case c == '\r':
				b = append(b, '\\', 'r')
			case c == '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// writeEnvelope finishes env in ew, sends it with status 200, and returns ew
// to the pool.
func (s *Server) writeEnvelope(w http.ResponseWriter, ew *envWriter, env *envelope) {
	ew.finish(env)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ew.buf)
	ew.release()
}

// handleQueryV1 is POST /v1/query: one document, any language, envelope out.
func (s *Server) handleQueryV1(w http.ResponseWriter, r *http.Request) {
	x := exchangeOf(w)
	tr := x.ctx.Trace()
	start := s.handlerStart(x)
	var req queryRequest
	if err := req.decode(r); err != nil {
		s.writeError(w, bodyStatus(err), err)
		return
	}
	s.setTimeout(x, req.TimeoutMS)
	res, plan, version, err := s.svc.QueryVersioned(&x.ctx, req.Doc, req.Lang, req.Query)
	s.observeQuery(tr, "query", req.Lang, req.Query, time.Since(start), err)
	if err != nil {
		s.writeError(w, errorStatus(err), err)
		return
	}
	env := envelope{RequestID: tr.ID()}
	ew := newEnvWriter()
	ew.result(&env, req.Doc, version, res, int(req.Limit))
	if req.Plan {
		env.Plan = plan
	}
	if debugTimings(x, r) {
		env.Timings = timingsJSON(tr)
	}
	s.writeEnvelope(w, ew, &env)
}

// handleCorpusQueryV1 is POST /v1/corpus/query: the fan-out route, one
// Aggregate written out in its own order (see envWriter.corpus).
func (s *Server) handleCorpusQueryV1(w http.ResponseWriter, r *http.Request) {
	x := exchangeOf(w)
	tr := x.ctx.Trace()
	start := s.handlerStart(x)
	var req corpusQueryRequest
	if err := req.decode(r); err != nil {
		s.writeError(w, bodyStatus(err), err)
		return
	}
	s.setTimeout(x, req.TimeoutMS)
	var opts []service.CorpusOption
	if req.DocTimeoutMS > 0 {
		opts = append(opts, service.WithDocTimeout(time.Duration(req.DocTimeoutMS)*time.Millisecond))
	}
	execStart := time.Now()
	results := s.svc.QueryCorpus(&x.ctx, req.Lang, req.Query, opts...)
	aggStart := time.Now()
	tr.Observe("exec", aggStart.Sub(execStart))
	agg := service.Aggregate(results, int(req.Limit))
	end := time.Now()
	tr.Observe("aggregate", end.Sub(aggStart))
	tr.SetDocs(agg.Docs)
	s.fanoutDocs.Observe(float64(agg.Docs))
	s.observeQuery(tr, "corpus", req.Lang, req.Query, end.Sub(start), nil)

	env := envelope{RequestID: tr.ID(), Docs: agg.Docs, Total: agg.Total, Truncated: agg.Truncated}
	ew := newEnvWriter()
	ew.corpus(agg)
	if len(agg.Failed) > 0 {
		env.Failed = make([]docErrorJSON, len(agg.Failed))
		for i, f := range agg.Failed {
			if errors.Is(f.Err, service.ErrPanic) {
				s.panics[panicDocument].Inc()
			}
			env.Failed[i] = docErrorJSON{Doc: f.Doc, Error: fmt.Sprintf("%s (request_id=%s)", f.Err.Error(), tr.ID())}
		}
	}
	if debugTimings(x, r) {
		env.Timings = timingsJSON(tr)
	}
	s.writeEnvelope(w, ew, &env)
}

// handleExecPreparedV1 is POST /v1/prepared/{id}: execute a registered
// prepared query on its document's current revision, envelope out (limit via
// the ?limit query parameter).
func (s *Server) handleExecPreparedV1(w http.ResponseWriter, r *http.Request) {
	x := exchangeOf(w)
	tr := x.ctx.Trace()
	start := s.handlerStart(x)
	id := r.PathValue("id")
	e, ok := s.lookupPrepared(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("server: unknown prepared query %q", id))
		return
	}
	limit, err := queryParam(x, r, "limit")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	timeoutMS, err := queryParam(x, r, "timeout_ms")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	eng, version, err := s.svc.EngineVersion(e.doc)
	if err != nil {
		s.writeError(w, errorStatus(err), err)
		return
	}
	s.setTimeout(x, int64(timeoutMS))
	res, plan, err := e.c.Exec(&x.ctx, eng)
	tr.Observe("exec", plan.ExecDuration)
	s.observeQuery(tr, "prepared", e.c.Language(), e.c.Text(), time.Since(start), err)
	if err != nil {
		s.writeError(w, errorStatus(err), err)
		return
	}
	env := envelope{RequestID: tr.ID(), ID: e.id, Plan: plan}
	ew := newEnvWriter()
	ew.result(&env, e.doc, version, res, limit)
	if debugTimings(x, r) {
		env.Timings = timingsJSON(tr)
	}
	s.writeEnvelope(w, ew, &env)
}

// parseNonNegativeInt parses a string of decimal digits, saturating at 1<<30.
func parseNonNegativeInt(s string) (int, error) {
	n := 0
	if s == "" {
		return 0, fmt.Errorf("empty")
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, fmt.Errorf("not a number: %q", s)
		}
		n = min(n*10+int(s[i]-'0'), 1<<30)
	}
	return n, nil
}
