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
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"log/slog"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/service"
)

// Default tuning; all overridable through options.
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

	// The admission gate is a pair of atomics rather than a channel semaphore
	// so SetMaxInFlight can reconfigure the bound at runtime: gateLimit is the
	// current width (<= 0 disables the gate), gateUsed the admitted requests
	// holding a slot.  A request that took a slot always returns it to the
	// same counter, so shrinking the limit mid-flight just sheds new arrivals
	// until the excess drains.
	gateLimit      atomic.Int64
	gateUsed       atomic.Int64
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	maxBody        int64
	retryAfter     time.Duration // fixed Retry-After hint; 0 = derive from load

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
	// and the per-scrape snapshot cache.
	reg        *obsv.Registry
	httpReqs   *obsv.CounterVec
	queryDur   *obsv.HistogramVec
	fanoutDocs *obsv.Histogram
	scrape     atomic.Pointer[scrapeSnapshot]
	accessLog  *slog.Logger
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
	maxBody        int64
	retryAfter     time.Duration
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

// WithMaxBodyBytes bounds request bodies; oversized uploads fail with 413.
func WithMaxBodyBytes(n int64) Option {
	return func(c *serverConfig) { c.maxBody = n }
}

// WithRetryAfter fixes the Retry-After hint attached to 429 responses
// (rounded up to whole seconds).  By default (0) the hint is derived from the
// gate's observed load: one average completed-request duration, the expected
// time for a saturated gate to free a slot, so clients under sustained
// overload back off in proportion to how slow the server actually is instead
// of hammering at a fixed 1s cadence.
func WithRetryAfter(d time.Duration) Option {
	return func(c *serverConfig) { c.retryAfter = d }
}

// New creates a Server over svc.
func New(svc *service.Service, opts ...Option) *Server {
	cfg := serverConfig{
		maxInFlight:    DefaultMaxInFlight,
		defaultTimeout: DefaultTimeout,
		maxTimeout:     DefaultMaxTimeout,
		maxBody:        DefaultMaxBodyBytes,
	}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Server{
		svc:            svc,
		mux:            http.NewServeMux(),
		defaultTimeout: cfg.defaultTimeout,
		maxTimeout:     cfg.maxTimeout,
		maxBody:        cfg.maxBody,
		retryAfter:     cfg.retryAfter,
		prepared:       map[string]*preparedEntry{},
		started:        time.Now(),
		reg:            cfg.registry,
		accessLog:      cfg.accessLog,
		slowLog:        cfg.slowLog,
		slowQuery:      cfg.slowQuery,
	}
	if cfg.maxInFlight > 0 {
		s.gateLimit.Store(int64(cfg.maxInFlight))
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
// response header and carried in the context as an obsv.Trace so the layers
// below can record per-stage spans.  The response code and duration feed the
// treeqd_http_requests_total counter and the access log.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	id := requestID(r)
	w.Header().Set("X-Request-ID", id)
	r = r.WithContext(obsv.WithTrace(r.Context(), obsv.NewTrace(id)))
	sw := &statusWriter{ResponseWriter: w}
	if s.maxBody > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(sw, r.Body, s.maxBody)
	}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	elapsed := time.Since(start)
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	handler := handlerLabel(r)
	s.httpReqs.With(handler, strconv.Itoa(sw.status)).Inc()
	if s.accessLog != nil {
		s.accessLog.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"handler", handler,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration_ms", float64(elapsed)/float64(time.Millisecond),
			"request_id", id,
		)
	}
}

// SetMaxInFlight reconfigures the admission gate at runtime (n <= 0 disables
// it).  Reconfiguring also resets the Retry-After EWMA: the old average was
// measured under the old concurrency bound, and carrying it across (say) a
// shed cycle that preceded a widening would keep advertising stale back-off
// hints until enough new samples washed it out.
func (s *Server) SetMaxInFlight(n int) {
	if n < 0 {
		n = 0
	}
	s.gateLimit.Store(int64(n))
	s.avgGatedNanos.Store(0)
}

// acquireGate claims an admission slot.  tookSlot reports whether a slot was
// actually taken (false when the gate is unbounded), so the release never
// decrements a counter it did not increment even if the gate is reconfigured
// mid-request.
func (s *Server) acquireGate() (tookSlot, ok bool) {
	for {
		limit := s.gateLimit.Load()
		if limit <= 0 {
			return false, true
		}
		used := s.gateUsed.Load()
		if used >= limit {
			return false, false
		}
		if s.gateUsed.CompareAndSwap(used, used+1) {
			return true, true
		}
	}
}

// gated wraps a handler with the admission gate: acquire a slot or reject
// with 429 immediately.  Rejecting instead of queueing keeps the tail latency
// of admitted requests flat under overload and hands flow control to clients
// (back off and retry) rather than to an unbounded server-side queue.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		gateStart := time.Now()
		tookSlot, ok := s.acquireGate()
		if !ok {
			s.rejected.Add(1)
			s.writeError(w, http.StatusTooManyRequests, errors.New("server: saturated, retry later"))
			return
		}
		obsv.TraceFrom(r.Context()).Observe("gate", time.Since(gateStart))
		s.inflight.Add(1)
		start := time.Now()
		defer func() {
			if tookSlot {
				s.gateUsed.Add(-1)
			}
			s.observeGated(time.Since(start))
			s.inflight.Add(-1)
		}()
		h(w, r)
	}
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

// retryAfterSeconds is the Retry-After hint attached to shed requests: the
// WithRetryAfter value when configured, otherwise one average observed
// request duration (the expected slot-turnover time of the saturated gate),
// clamped to [1, 60] whole seconds.
func (s *Server) retryAfterSeconds() int64 {
	if s.retryAfter > 0 {
		secs := int64((s.retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		return secs
	}
	secs := int64((time.Duration(s.avgGatedNanos.Load()) + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// requestContext derives the handler context: the client connection's context
// (cancelled on disconnect) bounded by the request timeout.  timeoutMS comes
// from the request body or the "timeout_ms" query parameter; zero means the
// server default, and every value is clamped to the server maximum.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.defaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if s.maxTimeout > 0 && (d <= 0 || d > s.maxTimeout) {
		d = s.maxTimeout
	}
	if d <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), d)
}

// queryParam reads the optional non-negative integer query parameter name:
// 0 when absent, an error when present but not a non-negative integer.
func queryParam(r *http.Request, name string) (int, error) {
	v := r.URL.Query().Get(name)
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
		Notes:     p.Notes,
		PrepareNS: int64(p.PrepareDuration),
		ExecNS:    int64(p.ExecDuration),
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
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
	body := map[string]any{
		"error":      err.Error(),
		"code":       errorCode(status),
		"request_id": w.Header().Get("X-Request-ID"),
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
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusBadRequest
	}
}

func decodeJSONBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	if c, ok := v.(interface{ check() error }); ok {
		if err := c.check(); err != nil {
			return fmt.Errorf("server: bad request body: %w", err)
		}
	}
	return nil
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

func (s *Server) handleListDocs(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"docs":     s.svc.Names(),
		"count":    s.svc.Len(),
		"versions": s.svc.Versions(),
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
// which the MaxBytesReader installed by ServeHTTP enforces whatever was
// declared — so an upload of up to a mebibyte is neither regrown while it
// arrives nor copied again on its way to the parser.
func (s *Server) readBody(r *http.Request) (string, error) {
	var sb strings.Builder
	if n := r.ContentLength; n > 0 {
		reserve := int64(bodyReserve)
		if s.maxBody > 0 {
			reserve = min(reserve, s.maxBody)
		}
		sb.Grow(int(min(n, reserve)))
	}
	_, err := io.Copy(&sb, r.Body)
	return sb.String(), err
}

// handlePutDoc upserts document {name} from the XML request body through
// service.PutXML: a new name is added at version 1 (201 Created); a live name
// is updated in place (200 OK) — the body is parsed against the live
// version's label dictionary, the service swaps in a fresh engine under a
// bumped version, and every cached plan and registered prepared query
// answers over it as it is.  A body that does not parse is a 400 and leaves
// the document as it was.
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
	s.writeJSON(w, status, map[string]any{"doc": name, "version": o.Version, "docs": s.svc.Len()})
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

// queryRequest is the body of POST /v1/query.
type queryRequest struct {
	Doc       string `json:"doc"`
	Lang      string `json:"lang"`
	Query     string `json:"query"`
	Limit     int    `json:"limit,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Plan      bool   `json:"plan,omitempty"`
}

func (q *queryRequest) check() error {
	return errors.Join(nonNegative("limit", int64(q.Limit)), nonNegative("timeout_ms", q.TimeoutMS))
}

// corpusQueryRequest is the body of POST /v1/corpus/query.
type corpusQueryRequest struct {
	Lang         string `json:"lang"`
	Query        string `json:"query"`
	Limit        int    `json:"limit,omitempty"`
	TimeoutMS    int64  `json:"timeout_ms,omitempty"`
	DocTimeoutMS int64  `json:"doc_timeout_ms,omitempty"`
}

func (q *corpusQueryRequest) check() error {
	return errors.Join(nonNegative("limit", int64(q.Limit)), nonNegative("timeout_ms", q.TimeoutMS),
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

func (q *prepareRequest) check() error { return nonNegative("timeout_ms", q.TimeoutMS) }

// handleRegisterPrepared compiles a query once for one document, under the
// service's strategy, and registers it: every later execution runs the
// compiled plan on the document's current engine.
func (s *Server) handleRegisterPrepared(w http.ResponseWriter, r *http.Request) {
	var req prepareRequest
	if err := decodeJSONBody(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
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

// updatePhaseNanos flattens the update-phase totals to integer nanoseconds
// for the /statusz JSON (time.Duration would marshal as a bare number anyway,
// but the explicit conversion pins the unit in one place).
func updatePhaseNanos(totals map[string]time.Duration) map[string]int64 {
	out := make(map[string]int64, len(totals))
	for phase, d := range totals {
		out[phase] = d.Nanoseconds()
	}
	return out
}

// handleStatusz reports the service counters (docs, queries, plan cache),
// the aggregated index-cache counters of every live engine, the similarity
// route's candidate/pruning counters, and the server-level traffic counters
// (requests, inflight, rejected).
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	s.prepMu.Lock()
	preparedCount := len(s.prepared)
	s.prepMu.Unlock()
	candidates, sizePruned, histPruned, kernelCalls := core.SimilarCounters()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s": int64(time.Since(s.started).Seconds()),
		"server": map[string]any{
			"requests":      s.requests.Load(),
			"inflight":      s.inflight.Load(),
			"rejected_429":  s.rejected.Load(),
			"max_in_flight": s.gateLimit.Load(),
			"retry_after_s": s.retryAfterSeconds(),
			"prepared":      preparedCount,
		},
		"index": map[string]any{
			"multi_labeled_docs": st.MultiLabeledDocs,
			"xasr_builds":        st.Index.XASRBuilds,
			"label_list_builds":  st.Index.LabelListBuilds,
			"label_list_hits":    st.Index.LabelListHits,
			"label_mask_builds":  st.Index.LabelMaskBuilds,
			"label_mask_hits":    st.Index.LabelMaskHits,
			"label_row_builds":   st.Index.LabelRowBuilds,
			"label_row_hits":     st.Index.LabelRowHits,
			"pair_builds":        st.Index.PairBuilds,
			"pair_hits":          st.Index.PairHits,
			"pair_evictions":     st.Index.PairEvictions,
			"pair_entries":       st.Index.PairEntries,
			"ted_builds":         st.Index.TEDBuilds,
			"releases":           st.Index.Releases,
		},
		// The similarity route: candidates considered, candidates eliminated
		// per lower bound, and full TED kernel invocations (process-wide).
		"similar": map[string]any{
			"candidates":       candidates,
			"size_pruned":      sizePruned,
			"hist_pruned":      histPruned,
			"ted_kernel_calls": kernelCalls,
		},
		"service": map[string]any{
			"docs":                 st.Docs,
			"doc_versions":         s.svc.Versions(),
			"queries":              st.Queries,
			"updates":              st.Updates,
			"plan_cache_hits":      st.PlanCacheHits,
			"plan_cache_misses":    st.PlanCacheMisses,
			"plan_cache_evictions": st.PlanCacheEvictions,
			"plan_cache_skips":     st.PlanCacheSkips,
			"plan_cache_size":      st.PlanCacheSize,
			"plan_cache_cap":       st.PlanCacheCap,
		},
		// Incremental document updates: patch-vs-rebuild split, cached plans
		// carried across (and how many of them the edit could not affect),
		// and cumulative per-phase wall time in nanoseconds.
		"updates": map[string]any{
			"patched":                    st.PatchedUpdates,
			"rebuilt":                    st.RebuildUpdates,
			"plans_carried":              st.PlanReprepares,
			"plans_skipped_by_label_set": st.PlansSkippedByLabelSet,
			"phase_totals_ns":            updatePhaseNanos(s.svc.UpdatePhaseTotals()),
		},
		// The pool counters marshal through obsv.PoolCounters, the single
		// source of truth for the key names shared with treeq -timing.
		"pools": obsv.Pools(),
	})
}
