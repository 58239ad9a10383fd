package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/poolcheck"
	"repro/internal/service"
)

// slogAccessLine is the reference access-log line: what slog.JSONHandler
// writes for the record Server.logAccess hands slog when the logger is not
// AccessLog's.
func slogAccessLine(t testing.TB, at time.Time, method, path, handler string, status int, n int64, d time.Duration, id string) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := slog.NewRecord(at, slog.LevelInfo, "request", 0)
	rec.AddAttrs(
		slog.String("method", method),
		slog.String("path", path),
		slog.String("handler", handler),
		slog.Int("status", status),
		slog.Int64("bytes", n),
		slog.Float64("duration_ms", float64(d)/float64(time.Millisecond)),
		slog.String("request_id", id),
	)
	if err := slog.NewJSONHandler(&buf, nil).Handle(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// appendedAccessLine is the line an AccessLog server writes for the same
// request: through logAccess, so from a pooled buffer and in one Write.
func appendedAccessLine(t testing.TB, at time.Time, method, path, handler string, status int, n int64, d time.Duration, id string) []byte {
	t.Helper()
	var out writeRecorder
	s := &Server{accessOut: &lockedWriter{w: &out}}
	x := &exchange{status: status, bytes: n}
	x.id[0] = id
	s.logAccess(x, &http.Request{Method: method, URL: &url.URL{Path: path}}, handler, at, d)
	if len(out.writes) != 1 {
		t.Fatalf("%d writes for one access-log line, want 1", len(out.writes))
	}
	return out.writes[0]
}

// writeRecorder keeps each Write's bytes apart.
type writeRecorder struct{ writes [][]byte }

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// TestAccessLineMatchesSlog holds the appended access-log line to
// slog.JSONHandler's bytes for hostile strings, every float format
// duration_ms takes, and times in several zones.
func TestAccessLineMatchesSlog(t *testing.T) {
	at := time.Date(2026, 10, 20, 22, 13, 57, 123456789, time.UTC)
	paths := []string{
		"/v1/query",
		`/v1/docs/a"b\c`,
		"/v1/docs/\x00\x01\b\f\n\r\t\x1f\x7f",
		"/v1/docs/\xff\xfe bad \xc3 utf-8 \xed\xa0\x80",
		"/v1/docs/\u2028\u2029",
		"/v1/docs/<script>&amp;</script>",
		"/v1/docs/ünïcödé/日本語/🌲",
		"/v1/docs/" + strings.Repeat("long-path/", 400), // past any pooled buffer
	}
	for _, p := range paths {
		want := slogAccessLine(t, at, "GET", p, "docs", 404, 87, 1500*time.Microsecond, "0123456789abcdef")
		got := appendedAccessLine(t, at, "GET", p, "docs", 404, 87, 1500*time.Microsecond, "0123456789abcdef")
		if !bytes.Equal(got, want) {
			t.Errorf("path %q:\n got %s\nwant %s", p, got, want)
		}
	}
	for _, d := range []time.Duration{0, 1, 999, 1000, 123456789, 3 * time.Hour} {
		want := slogAccessLine(t, at, "POST", "/v1/query", "query", 200, 0, d, "req-1")
		got := appendedAccessLine(t, at, "POST", "/v1/query", "query", 200, 0, d, "req-1")
		if !bytes.Equal(got, want) {
			t.Errorf("duration %v:\n got %s\nwant %s", d, got, want)
		}
	}
	for _, loc := range []*time.Location{time.UTC, time.Local, time.FixedZone("", -(9*3600 + 30*60)), time.FixedZone("X", 5*3600+45*60)} {
		for _, ns := range []int{0, 100_000_000, 123456789} {
			at := time.Date(2026, 1, 2, 3, 4, 5, ns, loc)
			want := slogAccessLine(t, at, "PUT", "/v1/docs/x", "docs", 201, 1<<40, time.Millisecond, "e2e-access")
			got := appendedAccessLine(t, at, "PUT", "/v1/docs/x", "docs", 201, 1<<40, time.Millisecond, "e2e-access")
			if !bytes.Equal(got, want) {
				t.Errorf("time %v:\n got %s\nwant %s", at, got, want)
			}
		}
	}
}

// FuzzAccessLine holds the appended access-log line to slog.JSONHandler's
// for any path, request ID and duration (the time is the duration after the
// Unix epoch, in a fixed zone).
func FuzzAccessLine(f *testing.F) {
	f.Add("/v1/query", "0123456789abcdef", int64(1_234_567))
	f.Add("/v1/docs/\xff\u2028\b", "id\"\\", int64(1))
	f.Add("", "", int64(-3*time.Hour))
	zone := time.FixedZone("", 3600+30*60)
	f.Fuzz(func(t *testing.T, path, id string, ns int64) {
		defer poolcheck.Check(t, envWritersOutstanding)
		at, d := time.Unix(0, ns).In(zone), time.Duration(ns)
		want := slogAccessLine(t, at, "POST", path, "other", 200, ns, d, id)
		got := appendedAccessLine(t, at, "POST", path, "other", 200, ns, d, id)
		if !bytes.Equal(got, want) {
			t.Fatalf("\n got %s\nwant %s", got, want)
		}
	})
}

// TestAccessLogSharesOneWriter serves concurrent requests through a server
// whose logger comes from AccessLog: each access line and each slow-query
// line reaches the writer whole, in a Write of its own, and a logger derived
// with With logs through slog with its extra attribute.
func TestAccessLogSharesOneWriter(t *testing.T) {
	var out writeRecorder
	logger := AccessLog(&out)
	ts, _ := newTestServer(t, nil, WithAccessLog(logger), WithSlowQueryLog(time.Nanosecond, logger))
	putDoc(t, ts.URL, "doc.xml", siteXML(1))
	const clients, queries = 4, 5
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range queries {
				resp, err := http.Post(ts.URL+"/v1/query", "application/json",
					strings.NewReader(`{"doc":"doc.xml","lang":"xpath","query":"//keyword"}`))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	ts.Close()
	var access, slow int
	for _, w := range out.writes {
		if bytes.Count(w, []byte("\n")) != 1 || w[len(w)-1] != '\n' || !json.Valid(w) {
			t.Fatalf("a Write that is not one JSON line: %q", w)
		}
		switch {
		case bytes.Contains(w, []byte(`"msg":"request"`)):
			access++
		case bytes.Contains(w, []byte(`"msg":"slow query"`)):
			slow++
		}
	}
	if want := clients * queries; access != want+1 || slow != want {
		t.Errorf("%d access and %d slow-query lines, want %d and %d", access, slow, want+1, want)
	}

	if New(service.New(), WithAccessLog(logger.With("node", "a"))).accessOut != nil {
		t.Fatal("a logger derived from AccessLog's is appended to directly, without its attribute")
	}
}
