// Package server is the HTTP/JSON front-end over the corpus query service:
// the layer that turns the in-process engine into a deployable system.  It
// exposes, under /v1, document management (upsert via PUT — live documents
// are updated in place under a bumped version, with every cached plan still
// warm — remove, list), single-document queries, prepared-query registration
// and execution, the corpus-wide aggregated fan-out, and a /v1/statusz
// counters endpoint.  The complete wire reference lives in docs/API.md.
//
// Two production concerns shape every handler:
//
//   - Deadlines.  Each request runs under a context derived from the client's
//     connection with a timeout (request-supplied, clamped to a server
//     maximum), threaded down through service.QueryCorpus into per-document
//     timeouts, so one slow query cannot hold a connection forever and a
//     corpus fan-out reports partial failures instead of stalling.
//
//   - Backpressure.  A bounded-concurrency admission gate (a semaphore sized
//     by WithMaxInFlight) protects the engine pool: requests beyond the bound
//     are rejected immediately with 429 and a Retry-After hint rather than
//     queueing without limit and collapsing latency for everyone.
//
// A Server is safe for concurrent use; it is an http.Handler.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"log/slog"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/service"
	"repro/internal/xmldoc"
)

// Default tuning; all but the body bound overridable through options.
const (
	// DefaultMaxInFlight is the default admission-gate width.
	DefaultMaxInFlight = 64
	// DefaultTimeout is applied when a request names no timeout.
	DefaultTimeout = 10 * time.Second
	// DefaultMaxTimeout clamps request-supplied timeouts.
	DefaultMaxTimeout = 60 * time.Second
	// DefaultMaxBodyBytes bounds request bodies (documents included).
	DefaultMaxBodyBytes = 64 << 20
)

// Server serves the corpus query service over HTTP.  Construct with New.
type Server struct {
	svc *service.Service
	mux *http.ServeMux

	// The admission gate: gateLimit is its width, fixed at New (0 disables
	// the gate), and gateUsed the admitted requests holding a slot.
	gateLimit      int64
	gateUsed       atomic.Int64
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	maxBody        int64

	// avgGatedNanos is an EWMA (alpha 1/8) of completed gated-request
	// durations; 0 means "no sample yet".  It drives the derived Retry-After
	// hint: one average request duration is the expected time for the
	// saturated gate to turn over a slot.
	avgGatedNanos atomic.Int64

	prepMu   sync.Mutex
	prepared map[string]*preparedEntry
	prepSeq  atomic.Uint64

	requests atomic.Uint64
	rejected atomic.Uint64
	inflight atomic.Int64
	started  time.Time

	// Observability (see obsv.go): the metrics registry and the live
	// instruments observed on the hot path, the access and slow-query logs,
	// the stats table's rows and the per-scrape snapshot cache.
	reg        *obsv.Registry
	httpReqs   *obsv.CounterVec
	queryDur   *obsv.HistogramVec
	series     metricTables
	fanoutDocs *obsv.Histogram
	panics     [len(scopeLabels)]*obsv.Counter
	rows       []service.Row
	scrape     atomic.Pointer[service.Snapshot]
	accessLog  *slog.Logger  // any logger but AccessLog's
	accessOut  *lockedWriter // AccessLog's writer: finish appends the line
	slowLog    *slog.Logger
	slowQuery  time.Duration
}

// preparedEntry is one server-registered prepared query: a compiled plan and
// the name of the document it runs on.  It is immutable; each execution runs
// the plan on the document's current engine, so a document update needs
// nothing from the registry.
type preparedEntry struct {
	id  string
	doc string
	c   *core.Compiled
}

// Option configures a Server.
type Option func(*serverConfig)

type serverConfig struct {
	maxInFlight    int
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	registry       *obsv.Registry
	accessLog      *slog.Logger
	slowLog        *slog.Logger
	slowQuery      time.Duration
}

// WithMaxInFlight bounds the number of concurrently admitted requests; the
// excess is rejected with 429 Too Many Requests (0 disables the gate).
func WithMaxInFlight(n int) Option {
	return func(c *serverConfig) { c.maxInFlight = n }
}

// WithDefaultTimeout sets the per-request deadline applied when the request
// names none.
func WithDefaultTimeout(d time.Duration) Option {
	return func(c *serverConfig) { c.defaultTimeout = d }
}

// WithMaxTimeout clamps request-supplied timeouts; a client may ask for less
// time than the default but never more than this.
func WithMaxTimeout(d time.Duration) Option {
	return func(c *serverConfig) { c.maxTimeout = d }
}

// New creates a Server over svc.
func New(svc *service.Service, opts ...Option) *Server {
	cfg := serverConfig{
		maxInFlight:    DefaultMaxInFlight,
		defaultTimeout: DefaultTimeout,
		maxTimeout:     DefaultMaxTimeout,
	}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Server{
		svc:            svc,
		mux:            http.NewServeMux(),
		defaultTimeout: cfg.defaultTimeout,
		maxTimeout:     cfg.maxTimeout,
		maxBody:        DefaultMaxBodyBytes,
		gateLimit:      int64(max(cfg.maxInFlight, 0)),
		prepared:       map[string]*preparedEntry{},
		started:        time.Now(),
		reg:            cfg.registry,
		accessLog:      cfg.accessLog,
		slowLog:        cfg.slowLog,
		slowQuery:      cfg.slowQuery,
	}
	if s.accessLog != nil {
		if h, ok := s.accessLog.Handler().(*accessHandler); ok {
			s.accessLog, s.accessOut = nil, h.out
		}
	}
	if s.reg == nil {
		s.reg = obsv.NewRegistry()
	}
	s.registerMetrics()
	// The /v1 surface.  The three query routes speak the unified ranked-result
	// envelope (see v1.go).
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/statusz", s.handleStatusz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/docs", s.handleListDocs)
	s.mux.HandleFunc("PUT /v1/docs/{name}", s.gated(s.handlePutDoc))
	s.mux.HandleFunc("DELETE /v1/docs/{name}", s.handleRemoveDoc)
	s.mux.HandleFunc("POST /v1/query", s.gated(s.handleQueryV1))
	s.mux.HandleFunc("POST /v1/corpus/query", s.gated(s.handleCorpusQueryV1))
	s.mux.HandleFunc("GET /v1/prepared", s.handleListPrepared)
	s.mux.HandleFunc("POST /v1/prepared", s.gated(s.handleRegisterPrepared))
	s.mux.HandleFunc("POST /v1/prepared/{id}", s.gated(s.handleExecPreparedV1))
	s.mux.HandleFunc("DELETE /v1/prepared/{id}", s.handleDeletePrepared)
	return s
}

// ServeHTTP implements http.Handler.  Every request gets a request ID
// (accepted from the client's X-Request-ID or generated), echoed in the
// response header and carried by the request's context (an
// obsv.RequestContext, which also holds its trace and deadline) so the layers
// below can record per-stage spans.  The response code and duration feed the
// treeqd_http_requests_total counter and the access log.  A handler that
// panics answers 500 with the internal error envelope, when nothing of its
// response has been sent yet.
//
// The clock is read once per boundary: the reading taken here starts the
// request and its gate span, the gate's admission reading ends that span and
// starts the handler's, and finish's one reading ends the request, its time
// in the gate and its access-log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	x := &exchange{ResponseWriter: w, began: time.Since(s.started)}
	w.Header()["X-Request-Id"] = x.setRequestID(r)
	x.ctx.Init(r.Context(), x.id[0])
	if r.Body != nil {
		x.body = limitedBody{rc: r.Body, n: s.maxBody, limit: s.maxBody}
		r.Body = &x.body
	}
	defer s.finish(x, r)
	s.mux.ServeHTTP(x, r)
}

// finish ends the request: it recovers a handler panic, releases the
// request's gate slot, then counts the response and writes its access-log
// line.
func (s *Server) finish(x *exchange, r *http.Request) {
	p := recover()
	if p != nil && p != http.ErrAbortHandler {
		s.panics[panicRequest].Inc()
		log.Printf("server: panic serving %s %s (request_id=%s): %v\n%s", r.Method, r.URL.Path, x.id[0], p, debug.Stack())
		if x.status == 0 {
			s.writeError(x, http.StatusInternalServerError, fmt.Errorf("server: internal error: %v", p))
			p = nil
		}
	}
	x.ctx.End()
	now := time.Now()
	end := now.Sub(s.started)
	if x.admitted != 0 {
		s.leaveGate(end - x.admitted)
	}
	if x.status == 0 {
		x.status = http.StatusOK
	}
	handler := handlerLabel(r)
	s.countRequest(handler, x.status)
	if s.accessLog != nil || s.accessOut != nil {
		s.logAccess(x, r, handler, now, end-x.began)
	}
	if p != nil {
		// The response is partly sent: abort it, so the client sees a broken
		// response rather than a short one.
		panic(http.ErrAbortHandler)
	}
}

// acquireGate claims an admission slot, or reports that the gate is full.
// An unbounded gate admits every request without counting it.
func (s *Server) acquireGate() bool {
	if s.gateLimit <= 0 {
		return true
	}
	for {
		used := s.gateUsed.Load()
		if used >= s.gateLimit {
			return false
		}
		if s.gateUsed.CompareAndSwap(used, used+1) {
			return true
		}
	}
}

// gated wraps a handler with the admission gate: acquire a slot or reject
// with 429 immediately.  Rejecting instead of queueing keeps the tail latency
// of admitted requests flat under overload and hands flow control to clients
// (back off and retry) rather than to an unbounded server-side queue.  The
// gate span runs from ServeHTTP's start, the route match included, to the
// admission; finish releases the slot.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.acquireGate() {
			s.rejected.Add(1)
			s.writeError(w, http.StatusTooManyRequests, errors.New("server: saturated, retry later"))
			return
		}
		x := exchangeOf(w)
		x.admitted = max(time.Since(s.started), 1) // 0 reads as "not admitted"
		x.ctx.Trace().Observe("gate", x.admitted-x.began)
		s.inflight.Add(1)
		h(w, r)
	}
}

// handlerStart is when the gate admitted the request: the start of a gated
// handler's own span.
func (s *Server) handlerStart(x *exchange) time.Time { return s.started.Add(x.admitted) }

// leaveGate releases an admitted request's gate slot after it spent d
// inside the gate.
func (s *Server) leaveGate(d time.Duration) {
	if s.gateLimit > 0 {
		s.gateUsed.Add(-1)
	}
	s.observeGated(d)
	s.inflight.Add(-1)
}

// observeGated folds one completed gated request into the duration EWMA that
// backs the derived Retry-After hint.
func (s *Server) observeGated(d time.Duration) {
	if d < 1 {
		d = 1 // keep 0 free as the "no sample yet" sentinel
	}
	for {
		old := s.avgGatedNanos.Load()
		next := int64(d)
		if old != 0 {
			next = old - old/8 + int64(d)/8
			if next < 1 {
				next = 1
			}
		}
		if s.avgGatedNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds is the Retry-After hint attached to shed requests: one
// average observed request duration (the expected slot-turnover time of the
// saturated gate), so clients under sustained overload back off in
// proportion to how slow the server is, clamped to [1, 60] whole seconds.
func (s *Server) retryAfterSeconds() int64 {
	secs := int64((time.Duration(s.avgGatedNanos.Load()) + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// setTimeout bounds the request's context by its timeout: timeoutMS comes
// from the request body or the "timeout_ms" query parameter; zero means the
// server default, and every value is clamped to the server maximum.
func (s *Server) setTimeout(x *exchange, timeoutMS int64) {
	d := s.defaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if s.maxTimeout > 0 && (d <= 0 || d > s.maxTimeout) {
		d = s.maxTimeout
	}
	x.ctx.SetTimeout(d)
}

// queryParam reads the optional non-negative integer query parameter name:
// 0 when absent, an error when present but not a non-negative integer.
func queryParam(x *exchange, r *http.Request, name string) (int, error) {
	v := x.queryValue(r, name)
	if v == "" {
		return 0, nil
	}
	n, err := parseNonNegativeInt(v)
	if err != nil {
		return 0, fmt.Errorf("server: ?%s must be a non-negative integer: %w", name, err)
	}
	return n, nil
}

// --- JSON shapes -----------------------------------------------------------

// planJSON is the wire form of a core.Plan.
type planJSON struct {
	Language  string   `json:"language"`
	Technique string   `json:"technique"`
	Notes     []string `json:"notes,omitempty"`
	PrepareNS int64    `json:"prepare_ns"`
	ExecNS    int64    `json:"exec_ns"`
}

func toPlanJSON(p *core.Plan) *planJSON {
	if p == nil {
		return nil
	}
	return &planJSON{
		Language:  p.Language,
		Technique: p.Technique,
		Notes:     p.AllNotes(),
		PrepareNS: int64(p.PrepareDuration),
		ExecNS:    int64(p.ExecDuration),
	}
}

// jsonContentType is the Content-Type header value of every JSON response,
// shared read-only so setting it allocates nothing.
var jsonContentType = []string{"application/json"}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError emits the unified error body {error, code, request_id,
// retry_after_s?} shared by every route.  Retryable statuses carry the
// back-off hint in both the Retry-After header and the body, derived from the
// gate's observed load, whether the gate or a later stage gave up.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	var id string
	if v := w.Header()["X-Request-Id"]; len(v) > 0 {
		id = v[0]
	}
	body := map[string]any{
		"error":      err.Error(),
		"code":       errorCode(status),
		"request_id": id,
	}
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		secs := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		body["retry_after_s"] = secs
	}
	s.writeJSON(w, status, body)
}

// errorStatus maps service/engine errors onto HTTP statuses.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, service.ErrUnknownDocument):
		return http.StatusNotFound
	case errors.Is(err, service.ErrDuplicateDocument):
		return http.StatusConflict
	case errors.Is(err, xmldoc.ErrTooDeep):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusBadRequest
	}
}

// decodeBody reads r's body, decodes it with unmarshal (see body.go), then
// runs check on the result.
func decodeBody(r *http.Request, unmarshal func(string) error, check func() error) error {
	body, err := readQueryBody(r)
	if err == nil {
		err = unmarshal(body)
	}
	if err == nil {
		err = check()
	}
	if err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	return nil
}

// bodyStatus is the status of a request body decodeBody refused: 413 for a
// body over the server's limit, 400 for anything else.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// nonNegative rejects a negative count or duration in a request: a negative
// limit would otherwise read as "every match" and a negative timeout as "the
// server default".
func nonNegative(name string, v int64) error {
	if v < 0 {
		return fmt.Errorf("%s must be a non-negative integer, got %d", name, v)
	}
	return nil
}

// --- document management ---------------------------------------------------

// handleListDocs lists the corpus from one read of it, so the names, the
// count and the versions agree under concurrent PUTs and DELETEs.
func (s *Server) handleListDocs(w http.ResponseWriter, r *http.Request) {
	versions := s.svc.Versions()
	var docs []string // null for an empty corpus
	if len(versions) > 0 {
		docs = make([]string, 0, len(versions))
	}
	for name := range versions {
		docs = append(docs, name)
	}
	slices.Sort(docs)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"docs":     docs,
		"count":    len(versions),
		"versions": versions,
	})
}

// bodyReserve caps what readBody reserves before the body arrives: a client
// may declare any length up to the body limit, and a reservation sized from
// the declaration alone would pin that much per request for a body that
// never comes.  Past it the buffer grows with the bytes that do arrive.
const bodyReserve = 1 << 20

// readBody reads the request body whole into one buffer, which the parser
// scans in place: the parsed tree copies its labels and text out and keeps no
// reference to it.  The buffer is sized up front from Content-Length when the
// client declared one, up to bodyReserve and never beyond the body limit,
// which the limitedBody installed by ServeHTTP enforces whatever was
// declared — so an upload of up to a mebibyte is read straight into its one
// buffer, neither regrown while it arrives nor copied again on its way to
// the parser.
func (s *Server) readBody(r *http.Request) (string, error) {
	var b []byte
	if n := r.ContentLength; n > 0 {
		b = make([]byte, 0, min(n, bodyReserve, s.maxBody)+1) // +1: the read that sees EOF needs room
	}
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
	}
	// Nothing writes b again: the string may share its bytes.
	return unsafe.String(unsafe.SliceData(b), len(b)), nil
}

// handlePutDoc upserts document {name} from the XML request body through
// service.PutXML: a new name is added at version 1 (201 Created); a live name
// is updated in place (200 OK) — the body is parsed against the live
// version's label dictionary, the service swaps in a fresh engine under a
// bumped version, and every cached plan and registered prepared query
// answers over it as it is.  A body that does not parse is a 400, and one
// nested deeper than xmldoc.MaxDepth a 413; either leaves the document as it
// was.
func (s *Server) handlePutDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	src, err := s.readBody(r)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, err)
		return
	}
	o, created, err := s.svc.PutXML(name, src)
	if err != nil {
		// A syntax error is a 400; a document removed between the lookup and
		// the update surfaces as 404 rather than retrying into a livelock.
		s.writeError(w, errorStatus(err), err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	// {"doc":…,"docs":…,"version":…}: the bytes writeJSON writes for the map
	// of these three, whose keys encoding/json sorts.
	ew := envWriters.Get().(*envWriter)
	ew.buf = append(ew.buf[:0], `{"doc":`...)
	ew.buf = appendString(ew.buf, name)
	ew.buf = append(ew.buf, `,"docs":`...)
	ew.buf = strconv.AppendInt(ew.buf, int64(s.svc.Len()), 10)
	ew.buf = append(ew.buf, `,"version":`...)
	ew.buf = strconv.AppendUint(ew.buf, o.Version, 10)
	ew.buf = append(ew.buf, "}\n"...)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(ew.buf)
	ew.release()
}

func (s *Server) handleRemoveDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.svc.Remove(name) {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", service.ErrUnknownDocument, name))
		return
	}
	// Drop the document's prepared queries, so a later execution fails at
	// lookup even if a new document takes the name.
	s.prepMu.Lock()
	for id, e := range s.prepared {
		if e.doc == name {
			delete(s.prepared, id)
		}
	}
	s.prepMu.Unlock()
	s.writeJSON(w, http.StatusOK, map[string]any{"doc": name, "docs": s.svc.Len()})
}

// --- queries ---------------------------------------------------------------

// queryRequest is the body of POST /v1/query.  The json tags describe the
// wire form; decode reads it (see body.go).
type queryRequest struct {
	Doc       string `json:"doc"`
	Lang      string `json:"lang"`
	Query     string `json:"query"`
	Limit     int64  `json:"limit,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Plan      bool   `json:"plan,omitempty"`
}

func (q *queryRequest) decode(r *http.Request) error {
	return decodeBody(r, q.unmarshal, q.check)
}

func (q *queryRequest) unmarshal(body string) error {
	return decodeObject(body, []bodyField{
		{name: "doc", str: &q.Doc},
		{name: "lang", str: &q.Lang},
		{name: "query", str: &q.Query},
		{name: "limit", num: &q.Limit},
		{name: "timeout_ms", num: &q.TimeoutMS},
		{name: "plan", flag: &q.Plan},
	})
}

func (q *queryRequest) check() error {
	return errors.Join(nonNegative("limit", q.Limit), nonNegative("timeout_ms", q.TimeoutMS))
}

// corpusQueryRequest is the body of POST /v1/corpus/query.
type corpusQueryRequest struct {
	Lang         string `json:"lang"`
	Query        string `json:"query"`
	Limit        int64  `json:"limit,omitempty"`
	TimeoutMS    int64  `json:"timeout_ms,omitempty"`
	DocTimeoutMS int64  `json:"doc_timeout_ms,omitempty"`
}

func (q *corpusQueryRequest) decode(r *http.Request) error {
	return decodeBody(r, q.unmarshal, q.check)
}

func (q *corpusQueryRequest) unmarshal(body string) error {
	return decodeObject(body, []bodyField{
		{name: "lang", str: &q.Lang},
		{name: "query", str: &q.Query},
		{name: "limit", num: &q.Limit},
		{name: "timeout_ms", num: &q.TimeoutMS},
		{name: "doc_timeout_ms", num: &q.DocTimeoutMS},
	})
}

func (q *corpusQueryRequest) check() error {
	return errors.Join(nonNegative("limit", q.Limit), nonNegative("timeout_ms", q.TimeoutMS),
		nonNegative("doc_timeout_ms", q.DocTimeoutMS))
}

// docErrorJSON is the wire form of one failed document of a fan-out.
type docErrorJSON struct {
	Doc   string `json:"doc"`
	Error string `json:"error"`
}

// --- prepared queries ------------------------------------------------------

// prepareRequest is the body of POST /v1/prepared.
type prepareRequest struct {
	Doc       string `json:"doc"`
	Lang      string `json:"lang"`
	Query     string `json:"query"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

func (q *prepareRequest) decode(r *http.Request) error {
	return decodeBody(r, q.unmarshal, q.check)
}

func (q *prepareRequest) unmarshal(body string) error {
	return decodeObject(body, []bodyField{
		{name: "doc", str: &q.Doc},
		{name: "lang", str: &q.Lang},
		{name: "query", str: &q.Query},
		{name: "timeout_ms", num: &q.TimeoutMS},
	})
}

func (q *prepareRequest) check() error { return nonNegative("timeout_ms", q.TimeoutMS) }

// handleRegisterPrepared compiles a query once for one document, under the
// service's strategy, and registers it: every later execution runs the
// compiled plan on the document's current engine.
func (s *Server) handleRegisterPrepared(w http.ResponseWriter, r *http.Request) {
	var req prepareRequest
	if err := req.decode(r); err != nil {
		s.writeError(w, bodyStatus(err), err)
		return
	}
	eng, version, err := s.svc.EngineVersion(req.Doc)
	if err != nil {
		s.writeError(w, errorStatus(err), err)
		return
	}
	pq, err := eng.Prepare(req.Lang, req.Query)
	if err != nil {
		s.writeError(w, errorStatus(err), err)
		return
	}
	// Zero-padded ids keep the lexicographic listing in registration order.
	entry := &preparedEntry{id: fmt.Sprintf("p%08d", s.prepSeq.Add(1)), doc: req.Doc, c: pq.Compiled}
	s.prepMu.Lock()
	s.prepared[entry.id] = entry
	s.prepMu.Unlock()
	s.writeJSON(w, http.StatusCreated, map[string]any{
		"id":      entry.id,
		"doc":     entry.doc,
		"version": version,
		"lang":    req.Lang,
		"query":   req.Query,
		"clauses": pq.Clauses(),
		"plan":    toPlanJSON(pq.Plan()),
	})
}

// preparedInfoJSON is one row of GET /v1/prepared.
type preparedInfoJSON struct {
	ID        string `json:"id"`
	Doc       string `json:"doc"`
	Version   uint64 `json:"version"`
	Lang      string `json:"lang"`
	Query     string `json:"query"`
	Execs     uint64 `json:"execs"`
	AvgExecNS int64  `json:"avg_exec_ns"`
}

// handleListPrepared lists the registered queries, each with the current
// version of its document (0 once the document is gone).
func (s *Server) handleListPrepared(w http.ResponseWriter, r *http.Request) {
	versions := s.svc.Versions()
	s.prepMu.Lock()
	infos := make([]preparedInfoJSON, 0, len(s.prepared))
	for _, e := range s.prepared {
		st := e.c.Stats()
		infos = append(infos, preparedInfoJSON{
			ID:        e.id,
			Doc:       e.doc,
			Version:   versions[e.doc],
			Lang:      e.c.Language(),
			Query:     e.c.Text(),
			Execs:     st.Execs,
			AvgExecNS: int64(st.AvgExec()),
		})
	}
	s.prepMu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	s.writeJSON(w, http.StatusOK, map[string]any{"prepared": infos, "count": len(infos)})
}

func (s *Server) lookupPrepared(id string) (*preparedEntry, bool) {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	e, ok := s.prepared[id]
	return e, ok
}

func (s *Server) handleDeletePrepared(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.prepMu.Lock()
	_, ok := s.prepared[id]
	delete(s.prepared, id)
	s.prepMu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("server: unknown prepared query %q", id))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"id": id})
}

// --- health and status -----------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleStatusz renders the stats table from one snapshot: the service,
// index, updates, similar and pools rows (service.StatTable) and the server's
// own, plus the two values that are not scalar counters, each document's
// version and the cumulative nanoseconds per update phase.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	sn := s.svc.Snapshot()
	out := service.Object(s.rows, sn)
	out["service"].(map[string]any)["doc_versions"] = sn.Versions
	out["updates"].(map[string]any)["phase_totals_ns"] = s.svc.UpdatePhaseTotals()
	s.writeJSON(w, http.StatusOK, out)
}
