package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/service"
	"repro/internal/workload"
	"repro/internal/xmldoc"
)

// replayBody is a request body that can be rewound, so one *http.Request can
// be served again and again without allocating a new body each time.
type replayBody struct {
	s string
	r strings.Reader
}

func (b *replayBody) rewind()                    { b.r.Reset(b.s) }
func (b *replayBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *replayBody) Close() error               { return nil }

// discardWriter is a ResponseWriter that keeps one header map across
// requests and counts the body bytes.
type discardWriter struct {
	h     http.Header
	code  int
	bytes int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}

// TestRequestPathAllocs pins what Server.ServeHTTP allocates for a warm
// query, net/http's own share excluded: the request and response writer are
// reused, so every allocation counted is the server's, the service's or the
// evaluator's.  The server is configured as treeqd configures it by default,
// the JSON access log from AccessLog included, whose line is appended into a
// pooled buffer.
//
//   - /v1/query (4): the request's exchange (its context, trace, clock
//     readings, ID, status and body bound in one object), the body string,
//     and the exec block and answer of the warm XPath exec.
//   - /v1/corpus/query over 4 documents (14): the same server share, the
//     fan-out's per-request objects (one exec block for every document
//     among them) and each document's answer.
func TestRequestPathAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("exact allocation counts: the race detector allocates, and sync.Pool drops items under it")
	}
	svc := service.New(service.WithWorkers(1))
	for _, name := range []string{"a.xml", "b.xml", "c.xml", "d.xml"} {
		if err := svc.AddXML(name, siteXML(3)); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(svc, WithAccessLog(AccessLog(io.Discard)))
	for _, c := range []struct {
		path, body string
		allocs     float64
	}{
		{"/v1/query", `{"doc":"a.xml","lang":"xpath","query":"//item//keyword","limit":2}`, 4},
		{"/v1/corpus/query", `{"lang":"xpath","query":"//item//keyword","limit":2}`, 14},
	} {
		body := &replayBody{s: c.body}
		req := httptest.NewRequest(http.MethodPost, c.path, body)
		w := &discardWriter{h: http.Header{}}
		serve := func() {
			body.rewind()
			req.Body = body
			clear(w.h)
			srv.ServeHTTP(w, req)
		}
		serve()
		if w.code != http.StatusOK {
			t.Fatalf("%s: status %d", c.path, w.code)
		}
		got := testing.AllocsPerRun(100, serve)
		t.Logf("%-17s %3.0f allocs per request", c.path, got)
		if got > c.allocs {
			t.Errorf("%s: a warm request allocates %.0f objects, want at most %.0f", c.path, got, c.allocs)
		}
	}
}

// TestPutPathAllocs pins what Server.ServeHTTP allocates for a warm PUT of
// an update_churn document (400 items, one keyword's text toggled from one
// PUT to the next, the workload's reads warm), configured as treeqd is by
// default, the JSON access log from AccessLog included.  What it allocates
// is the new version: its tree (the tree, one block of int32 columns, the
// text, the scanner), the body it was read from, the diff's script, the
// patched index and engine and the swap; beside them the request's exchange
// and the service's outcome.  The reply and the access-log line are
// appended into pooled buffers.
func TestPutPathAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("exact allocation counts: the race detector allocates, and sync.Pool drops items under it")
	}
	src := xmldoc.Serialize(workload.SiteDocument(workload.DocSpec{Items: 400, Regions: 6, DescriptionDepth: 2, Seed: 1}), false)
	mid := strings.Index(src[len(src)/2:], "<keyword>") + len(src)/2 + len("<keyword>")
	revs := [2]string{src, src[:mid] + "edited " + src[mid:]}
	svc := service.New(service.WithWorkers(1))
	if err := svc.AddXML("doc", revs[0]); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range []struct{ lang, text string }{
		{core.LangXPath, "//item[name]/description//keyword"},
		{core.LangStream, "//item//keyword"},
		{core.LangSimilar, "k=10 description(parlist(listitem(keyword text)))"},
	} {
		if _, _, err := svc.Query(ctx, "doc", q.lang, q.text); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(svc, WithAccessLog(AccessLog(io.Discard)))
	bodies := [2]*replayBody{{s: revs[0]}, {s: revs[1]}}
	req := httptest.NewRequest(http.MethodPut, "/v1/docs/doc", nil)
	w := &discardWriter{h: http.Header{}}
	next := 1
	put := func() {
		body := bodies[next]
		body.rewind()
		req.Body, req.ContentLength = body, int64(len(body.s))
		clear(w.h)
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("PUT: status %d", w.code)
		}
		next = 1 - next
	}
	put()
	put()
	got := testing.AllocsPerRun(50, put)
	t.Logf("PUT of a %d-byte document: %.0f allocs per request", len(src), got)
	if got > 16 {
		t.Errorf("a warm PUT allocates %.0f objects, want at most 16", got)
	}
}

// TestExchangeSize pins the one object every request allocates: the
// exchange must not grow as per-request state moves into it.
func TestExchangeSize(t *testing.T) {
	if n := unsafe.Sizeof(exchange{}); n > 464 {
		t.Errorf("exchange is %d bytes, want at most 464", n)
	}
}
