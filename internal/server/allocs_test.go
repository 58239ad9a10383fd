package server

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/race"
	"repro/internal/service"
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
// the JSON access log included.
//
//   - /v1/query: the request's exchange (its context, trace, ID and status
//     in one object), the MaxBytesReader, the body string, the access-log
//     record's attributes past slog's inline five, and the exec block and
//     answer of the warm XPath exec.
//   - /v1/corpus/query over 4 documents: the same server share, the
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
	srv := New(svc, WithAccessLog(slog.New(slog.NewJSONHandler(io.Discard, nil))))
	for _, c := range []struct {
		path, body string
		allocs     float64
	}{
		{"/v1/query", `{"doc":"a.xml","lang":"xpath","query":"//item//keyword","limit":2}`, 8},
		{"/v1/corpus/query", `{"lang":"xpath","query":"//item//keyword","limit":2}`, 19},
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
