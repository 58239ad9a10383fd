package server

import (
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// AccessLog returns the logger for WithAccessLog and WithSlowQueryLog that
// writes JSON lines to w: a slog.JSONHandler over w, in a handler the server
// recognises.  A server given it appends each access-log line itself
// (appendAccessLine) — the bytes slog.JSONHandler would write for the
// record, without the record's allocations or slog's formatting — and writes
// the line to w under the same lock as the handler's own records, one Write
// per line.  Every other record, the slow-query lines included, goes through
// the slog.JSONHandler as before.
func AccessLog(w io.Writer) *slog.Logger {
	lw := &lockedWriter{w: w}
	return slog.New(&accessHandler{JSONHandler: slog.NewJSONHandler(lw, nil), out: lw})
}

// accessHandler is the handler of an AccessLog logger.  A logger derived
// with With or WithGroup gets the embedded JSONHandler's derived handler, so
// the server does not recognise it and logs through it.
type accessHandler struct {
	*slog.JSONHandler
	out *lockedWriter
}

// lockedWriter serializes the Writes of one log's lines.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// logAccess writes the access-log line of one finished request: appended
// into a pooled buffer when the logger came from AccessLog, through slog
// otherwise.
func (s *Server) logAccess(x *exchange, r *http.Request, handler string, now time.Time, elapsed time.Duration) {
	if s.accessOut != nil {
		ew := getEnvWriter()
		ew.buf = appendAccessLine(ew.buf, now, r.Method, r.URL.Path, handler, x.status, x.bytes, elapsed, x.id[0])
		_, _ = s.accessOut.Write(ew.buf) // a failed log write fails no request; slog drops it too
		ew.release()
		return
	}
	// Any other logger: today only the benchmark's in-process twin
	// (bench/treeload/trace.go) passes one.  This path goes once it builds
	// its logger with AccessLog (ROADMAP item 8b).
	s.accessLog.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("handler", handler),
		slog.Int("status", x.status),
		slog.Int64("bytes", x.bytes),
		slog.Float64("duration_ms", durationMS(elapsed)),
		slog.String("request_id", x.id[0]),
	)
}

// durationMS is the access log's duration_ms value.
func durationMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// appendAccessLine appends one access-log line: the bytes slog.JSONHandler
// writes for an Info record "request" taken at t with the attributes method,
// path, handler, status, bytes, duration_ms and request_id
// (TestAccessLineMatchesSlog and FuzzAccessLine hold the two equal).
func appendAccessLine(b []byte, t time.Time, method, path, handler string, status int, bytes int64, elapsed time.Duration, id string) []byte {
	b = append(b, `{"time":"`...)
	b = t.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","level":"INFO","msg":"request","method":`...)
	b = appendLogString(b, method)
	b = append(b, `,"path":`...)
	b = appendLogString(b, path)
	b = append(b, `,"handler":`...)
	b = appendLogString(b, handler)
	b = append(b, `,"status":`...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, bytes, 10)
	b = append(b, `,"duration_ms":`...)
	b = appendJSONFloat(b, durationMS(elapsed))
	b = append(b, `,"request_id":`...)
	b = appendLogString(b, id)
	return append(b, "}\n"...)
}

// appendLogString appends s as slog.JSONHandler writes a string: as
// appendString does, but with '\b' and '\f' as \u0008 and \u000c.
func appendLogString(b []byte, s string) []byte { return appendQuoted(b, s, false) }

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// the shortest 'f' form, or 'e' below 1e-6 and from 1e21 with a one-digit
// negative exponent unpadded (e-7, not e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
