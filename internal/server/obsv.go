// Observability plumbing for the HTTP front-end: the Prometheus registry and
// its metric families, request-ID tracing, JSON access and slow-query logs,
// and the opt-in pprof handler.  The metrics core itself lives in
// internal/obsv; this file declares the server's rows of the stats table and
// adds the service's (service.StatTable).
package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"log/slog"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/service"
)

// registerMetrics registers every server-owned family on the registry and
// declares the stats table.  Live instruments (request counters, latency
// histograms) are observed on the hot path; each row of the stats table that
// has a family registers it, collected at scrape time from one cached
// snapshot.
func (s *Server) registerMetrics() {
	reg := s.reg
	s.httpReqs = reg.NewCounterVec("treeqd_http_requests_total",
		"HTTP requests by handler and response code.", "handler", "code")
	s.queryDur = reg.NewHistogramVec("treeqd_query_duration_seconds",
		"End-to-end query handling time by language, route, and outcome.",
		obsv.DurationBuckets, "lang", "route", "outcome")
	s.fanoutDocs = reg.NewHistogramVec("treeqd_corpus_fanout_docs",
		"Documents per corpus fan-out.", obsv.CountBuckets).With()
	panics := reg.NewCounterVec("treeqd_panics_recovered_total",
		"Panics recovered: a handler's (answered 500) or one document's in a corpus fan-out (failed that document).", "scope")
	for i, scope := range scopeLabels {
		s.panics[i] = panics.With(scope)
	}

	// One service.Snapshot per scrape (it visits every live engine): the
	// scrape-time families read the cached copy instead of re-walking the
	// corpus per family.
	reg.OnScrape(func() { s.scrape.Store(s.svc.Snapshot()) })
	t := service.StatTable(reg, s.scrape.Load)

	// The server's rows of the stats table: uptime and the traffic and
	// admission-gate counters, read live rather than from the snapshot.
	t.Gauge("", "uptime_s", "treeqd_uptime_seconds", "Seconds since the server started.",
		func(*service.Snapshot) int64 { return int64(time.Since(s.started).Seconds()) })
	t.Counter("server", "requests", "treeqd_requests_total", "HTTP requests received.",
		func(*service.Snapshot) int64 { return int64(s.requests.Load()) })
	t.Counter("server", "rejected_429", "treeqd_rejected_total", "Requests shed by the admission gate with 429.",
		func(*service.Snapshot) int64 { return int64(s.rejected.Load()) })
	t.Gauge("server", "inflight", "treeqd_inflight_requests", "Gated requests currently executing.",
		func(*service.Snapshot) int64 { return s.inflight.Load() })
	t.Gauge("server", "max_in_flight", "treeqd_max_in_flight", "Admission-gate width (0 = unbounded).",
		func(*service.Snapshot) int64 { return s.gateLimit })
	t.Gauge("server", "retry_after_s", "treeqd_retry_after_seconds", "Current Retry-After hint attached to shed requests.",
		func(*service.Snapshot) int64 { return s.retryAfterSeconds() })
	t.Gauge("server", "prepared", "treeqd_prepared_queries", "Server-registered prepared queries.",
		func(*service.Snapshot) int64 {
			s.prepMu.Lock()
			defer s.prepMu.Unlock()
			return int64(len(s.prepared))
		})
	s.rows = t.Rows
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// exchange is the state of one request in one allocation: the
// ResponseWriter wrapper that records the status and byte count for the
// access log and treeqd_http_requests_total, the request's context (its trace
// and deadline), its ID and the URL query, parsed on first use.  ServeHTTP
// hands it to the mux as the ResponseWriter, so a handler recovers it with
// exchangeOf.
type exchange struct {
	http.ResponseWriter
	status int
	bytes  int64

	ctx   obsv.RequestContext
	id    [1]string // the request ID, as the X-Request-Id header value
	idBuf [16]byte  // a generated ID's digits
	query url.Values
	body  limitedBody
}

// limitedBody bounds a request body at limit bytes, as http.MaxBytesReader
// does: a read past the bound fails with *http.MaxBytesError.  It lives in
// the exchange, so bounding a body allocates nothing, where MaxBytesReader
// allocates a reader per request.  (MaxBytesReader's other duty, telling
// net/http's response to close the connection after an oversized body, never
// reached that response through the exchange's wrapper either.)
type limitedBody struct {
	rc    io.ReadCloser
	n     int64 // bytes left
	limit int64
	err   error
}

func (b *limitedBody) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	if len(p) == 0 {
		return 0, nil
	}
	// One byte past what is left tells a body at the bound from one over it.
	if int64(len(p))-1 > b.n {
		p = p[:b.n+1]
	}
	n, err := b.rc.Read(p)
	if int64(n) <= b.n {
		b.n -= int64(n)
		b.err = err
		return n, err
	}
	n, b.n = int(b.n), 0
	b.err = &http.MaxBytesError{Limit: b.limit}
	return n, b.err
}

func (b *limitedBody) Close() error { return b.rc.Close() }

// exchangeOf returns the exchange ServeHTTP wrapped the handler's
// ResponseWriter in.
func exchangeOf(w http.ResponseWriter) *exchange { return w.(*exchange) }

func (x *exchange) WriteHeader(code int) {
	if x.status == 0 {
		x.status = code
	}
	x.ResponseWriter.WriteHeader(code)
}

func (x *exchange) Write(b []byte) (int, error) {
	if x.status == 0 {
		x.status = http.StatusOK
	}
	n, err := x.ResponseWriter.Write(b)
	x.bytes += int64(n)
	return n, err
}

// setRequestID takes the client-supplied X-Request-ID when it is usable
// (non-empty, bounded, printable ASCII — it is echoed into headers and logs),
// or generates one into x.idBuf, and returns it as a header value.
func (x *exchange) setRequestID(r *http.Request) []string {
	if v := r.Header["X-Request-Id"]; len(v) > 0 && usableRequestID(v[0]) {
		x.id[0] = v[0]
	} else {
		b := obsv.AppendRequestID(x.idBuf[:0])
		x.id[0] = unsafe.String(&b[0], len(b))
	}
	return x.id[:]
}

func usableRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// queryValue returns the URL query parameter name, parsing the query string
// at most once per request and not at all when it is empty.
func (x *exchange) queryValue(r *http.Request, name string) string {
	if r.URL.RawQuery == "" {
		return ""
	}
	if x.query == nil {
		x.query = r.URL.Query()
	}
	return x.query.Get(name)
}

// The closed label sets of the hot-path families.  Each (handler, code) and
// (lang, route, outcome) child is resolved on its first observation and kept
// in a fixed table, so observing costs no key join and no allocation, and the
// exposition lists only the series that were observed.
var (
	handlerLabels = [...]string{"healthz", "statusz", "metrics", "query", "corpus_query", "docs", "prepared", "other"}
	// codeLabels are the statuses the server and its mux answer with; any
	// other code is counted through the family's own lookup.
	codeLabels = [...]int{200, 201, 301, 307, 308, 400, 404, 405, 409, 413, 429, 499, 500, 504}
	// langLabels are the query languages, then "other" for every language
	// the service does not know, so a client cannot mint series.
	langLabels    = [...]string{core.LangXPath, core.LangCQ, core.LangDatalog, core.LangTwig, core.LangStream, core.LangSimilar, "other"}
	routeLabels   = [...]string{"query", "corpus", "prepared"}
	outcomeLabels = [...]string{"ok", "timeout", "canceled", "error"}
	scopeLabels   = [...]string{"request", "document"}
)

// Indexes of scopeLabels.
const (
	panicRequest  = iota // a handler's panic, recovered by ServeHTTP
	panicDocument        // one document's panic in a corpus fan-out
)

// metricTables holds the resolved hot-path children.
type metricTables struct {
	http  [len(handlerLabels)][len(codeLabels)]atomic.Pointer[obsv.Counter]
	query [len(langLabels)][len(routeLabels)][len(outcomeLabels)]atomic.Pointer[obsv.Histogram]
}

// countRequest counts one response in treeqd_http_requests_total.
func (s *Server) countRequest(handler string, code int) {
	ci := slices.Index(codeLabels[:], code)
	if ci < 0 {
		s.httpReqs.With(handler, strconv.Itoa(code)).Inc()
		return
	}
	slot := &s.series.http[slices.Index(handlerLabels[:], handler)][ci]
	c := slot.Load()
	if c == nil {
		c = s.httpReqs.With(handler, strconv.Itoa(code))
		slot.Store(c)
	}
	c.Inc()
}

// queryHistogram returns the treeqd_query_duration_seconds child of (lang,
// route, outcome), counting a language the service does not know as
// "other".
func (s *Server) queryHistogram(lang, route, outcome string) *obsv.Histogram {
	li := slices.Index(langLabels[:], lang)
	if li < 0 {
		li = len(langLabels) - 1
	}
	slot := &s.series.query[li][slices.Index(routeLabels[:], route)][slices.Index(outcomeLabels[:], outcome)]
	h := slot.Load()
	if h == nil {
		h = s.queryDur.With(langLabels[li], route, outcome)
		slot.Store(h)
	}
	return h
}

// handlerLabel maps the request path onto the bounded handler-label set of
// treeqd_http_requests_total.  (Derived by hand: the mux pattern that matched
// is not observable on this Go version.)
func handlerLabel(r *http.Request) string {
	p, ok := strings.CutPrefix(r.URL.Path, "/v1")
	switch {
	case !ok:
		return "other"
	case p == "/healthz":
		return "healthz"
	case p == "/statusz":
		return "statusz"
	case p == "/metrics":
		return "metrics"
	case p == "/query":
		return "query"
	case p == "/corpus/query":
		return "corpus_query"
	case p == "/docs" || strings.HasPrefix(p, "/docs/"):
		return "docs"
	case p == "/prepared" || strings.HasPrefix(p, "/prepared/"):
		return "prepared"
	default:
		return "other"
	}
}

// outcomeLabel buckets a query error into the bounded outcome-label set of
// treeqd_query_duration_seconds.
func outcomeLabel(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errorStatus(err) == http.StatusGatewayTimeout:
		return "timeout"
	case errorStatus(err) == 499:
		return "canceled"
	default:
		return "error"
	}
}

// observeQuery finishes the instrumentation of one query-route request: it
// records the end-to-end latency histogram sample, stamps the query identity
// onto the trace, and emits at most one slow-query log line — the one place
// the query text is hashed.
func (s *Server) observeQuery(tr *obsv.Trace, route, lang, text string, start time.Time, err error) {
	elapsed := time.Since(start)
	outcome := outcomeLabel(err)
	s.queryHistogram(lang, route, outcome).ObserveDuration(elapsed)
	tr.SetQuery(route, lang, text)
	if s.slowQuery > 0 && elapsed >= s.slowQuery && s.slowLog != nil {
		s.slowLog.Warn("slow query",
			"request_id", tr.ID(),
			"route", route,
			"lang", lang,
			"query_hash", obsv.QueryHash(text),
			"duration_ms", float64(elapsed)/float64(time.Millisecond),
			"outcome", outcome,
			"stages", stageBreakdown(tr),
		)
	}
}

// stageBreakdown renders the trace's spans as "gate=12µs plan=3ms exec=250ms"
// for the slow-query log.
func stageBreakdown(tr *obsv.Trace) string {
	spans := tr.Spans()
	parts := make([]string, len(spans))
	for i, sp := range spans {
		parts[i] = fmt.Sprintf("%s=%s", sp.Name, sp.Duration)
	}
	return strings.Join(parts, " ")
}

// debugTimings reports whether the request asked for the per-stage timing
// echo (?debug=timings).
func debugTimings(x *exchange, r *http.Request) bool {
	return x.queryValue(r, "debug") == "timings"
}

// timingsJSON renders the trace for the ?debug=timings response field.
func timingsJSON(tr *obsv.Trace) map[string]any {
	spans := tr.Spans()
	stages := make([]map[string]any, len(spans))
	for i, sp := range spans {
		stages[i] = map[string]any{"stage": sp.Name, "ns": sp.Duration.Nanoseconds()}
	}
	return map[string]any{"request_id": tr.ID(), "stages": stages}
}

// DebugHandler returns the opt-in debug mux treeqd serves on -debug-addr: the
// pprof profiling endpoints (the goroutine count is
// /debug/pprof/goroutine?debug=1).  It is a separate handler (not mounted on
// the main server) so profiling never shares a listener with production
// traffic.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// WithRegistry attaches an external metrics registry — typically shared with
// service.WithMetrics so one /metrics scrape covers both layers.  Without
// this option the server creates a private registry; /metrics works either
// way.
func WithRegistry(reg *obsv.Registry) Option {
	return func(c *serverConfig) { c.registry = reg }
}

// WithAccessLog enables the structured access log: one slog line per HTTP
// request (method, path, handler, status, bytes, duration, request ID).
// treeqd passes a JSON handler, so the lines are machine-parseable.
func WithAccessLog(l *slog.Logger) Option {
	return func(c *serverConfig) { c.accessLog = l }
}

// WithSlowQueryLog logs one Warn line to l for every query-route request
// slower than threshold, carrying the query-text hash (never the text
// itself), route, language, outcome, and per-stage breakdown.  threshold <= 0
// disables the log.
func WithSlowQueryLog(threshold time.Duration, l *slog.Logger) Option {
	return func(c *serverConfig) { c.slowQuery, c.slowLog = threshold, l }
}
