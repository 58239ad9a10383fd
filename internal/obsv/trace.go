package obsv

import (
	"context"
	"encoding/hex"
	"hash/fnv"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage of a request: the admission-gate wait, the
// plan-cache lookup, the execution, the corpus aggregation.
type Span struct {
	// Name is the stage name ("gate", "plan", "exec", "aggregate").
	Name string
	// Duration is the stage's wall time.
	Duration time.Duration
}

// inlineSpans is how many spans a Trace holds without allocating: a query
// request records at most four (gate, plan, exec, aggregate).
const inlineSpans = 6

// Trace accumulates the per-stage timings of one request as it descends
// through the serving layers.  It travels in the request's RequestContext
// (TraceFrom finds it), so the service layer can record its plan-cache and
// execution spans without the server threading anything explicitly.  All methods are safe on a nil *Trace (they no-op) and for
// concurrent use — a corpus fan-out may record from many workers at once.
type Trace struct {
	id string

	mu    sync.Mutex
	n     int
	spans [inlineSpans]Span
	more  []Span // spans past the inline array

	route string
	lang  string
	text  string
	docs  int
}

// ID returns the request ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Observe appends one completed stage.
func (t *Trace) Observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.n < inlineSpans {
		t.spans[t.n] = Span{Name: name, Duration: d}
		t.n++
	} else {
		t.more = append(t.more, Span{Name: name, Duration: d})
	}
	t.mu.Unlock()
}

// SetQuery records what the request was querying: the serving route
// ("query", "corpus", "prepared"), the language, and the query text, whose
// hash Query computes when it is read.
func (t *Trace) SetQuery(route, lang, text string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.route, t.lang, t.text = route, lang, text
	t.mu.Unlock()
}

// SetDocs records how many documents the request fanned out to.
func (t *Trace) SetDocs(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.docs = n
	t.mu.Unlock()
}

// Query returns the route, language, and query-text hash (QueryHash) recorded
// by SetQuery; route is "" for non-query requests.  The hash — not the text —
// is what the slow-query log records, so operators can correlate slow
// executions of the same query without the log retaining user data.
func (t *Trace) Query() (route, lang, queryHash string) {
	if t == nil {
		return "", "", ""
	}
	t.mu.Lock()
	route, lang, text := t.route, t.lang, t.text
	t.mu.Unlock()
	if route == "" {
		return "", "", ""
	}
	return route, lang, QueryHash(text)
}

// Docs returns the fan-out document count recorded by SetDocs (0 otherwise).
func (t *Trace) Docs() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.docs
}

// Spans returns a copy of the recorded stages, in recording order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(append(make([]Span, 0, t.n+len(t.more)), t.spans[:t.n]...), t.more...)
}

// QueryHash returns the stable query-text hash used by the slow-query log:
// 16 hex digits of FNV-64a.
func QueryHash(text string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(text))
	var buf [8]byte
	return hex.EncodeToString(h.Sum(buf[:0]))
}

type traceKey struct{}

// TraceFrom returns the trace carried by ctx — a RequestContext's, found
// directly or through a context derived from it — or nil.  The nil return is
// safe to record on, so instrumented hot paths need no branches beyond the
// lookup.
func TraceFrom(ctx context.Context) *Trace {
	if rc, ok := ctx.(*RequestContext); ok {
		return &rc.trace
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// AppendRequestID appends a fresh 16-hex-digit request ID to dst, so a
// caller with a fixed buffer gets one without allocating.  The 64 random
// bits come from math/rand/v2's runtime source (ChaCha8, seeded from the
// operating system per thread): IDs need to be unique, not secret, and the
// source costs no system call.
func AppendRequestID(dst []byte) []byte {
	const hexDigits = "0123456789abcdef"
	n := rand.Uint64()
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[n>>uint(shift)&0xF])
	}
	return dst
}

// Request-context states: live until the request ends, its deadline passes or
// its parent is cancelled, then fixed.
const (
	rcLive uint32 = iota
	rcCanceled
	rcExpired
)

// RequestContext is the context.Context of one served request: it carries the
// request's Trace and its deadline, over the parent context net/http gives
// the request (cancelled when the client goes away).  It replaces the
// WithValue / WithTimeout chain a handler would otherwise build, and costs
// nothing beyond its own memory until someone asks for Done:
//
//   - Err polls — the parent's error first, then the clock against the
//     deadline — which is all the evaluators' checkpoints call.
//   - Done makes its channel, arms a timer for the deadline and registers on
//     the parent only when first called (a WithTimeout derived from this
//     context calls it, for example).
//
// The zero value is not usable; Init it, set the deadline with SetTimeout
// before the context is shared, and End it when the request is over.  A
// RequestContext is meant to be embedded in a larger per-request object, so
// that one allocation covers the request's whole state.
type RequestContext struct {
	parent   context.Context
	deadline time.Time // zero: none of its own
	state    atomic.Uint32

	mu         sync.Mutex
	done       chan struct{} // made by the first Done
	closed     bool          // done is closed
	timer      *time.Timer
	stopParent func() bool

	trace Trace
}

// Init readies c for a request with the given ID over parent.
func (c *RequestContext) Init(parent context.Context, id string) {
	c.parent = parent
	c.trace.id = id
}

// Trace returns the request's trace.
func (c *RequestContext) Trace() *Trace { return &c.trace }

// SetTimeout bounds the request at d from now (d <= 0: no bound of its own).
// Call it before the context is handed to other goroutines or asked for Done.
func (c *RequestContext) SetTimeout(d time.Duration) {
	if d > 0 {
		c.deadline = time.Now().Add(d)
	}
}

// End finishes the request: the context reads as cancelled from now on, like
// one whose CancelFunc has run, and its timer and parent registration are
// released.
func (c *RequestContext) End() { c.finish(rcCanceled) }

// Deadline implements context.Context: the earlier of the request's own
// deadline and the parent's.
func (c *RequestContext) Deadline() (time.Time, bool) {
	d, ok := c.parent.Deadline()
	if !c.deadline.IsZero() && (!ok || c.deadline.Before(d)) {
		return c.deadline, true
	}
	return d, ok
}

// Err implements context.Context by polling: a cancelled parent or a passed
// deadline ends the context on the spot.
func (c *RequestContext) Err() error {
	switch c.state.Load() {
	case rcCanceled:
		return context.Canceled
	case rcExpired:
		return context.DeadlineExceeded
	}
	if err := c.parent.Err(); err != nil {
		return c.finish(stateOf(err))
	}
	if !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
		return c.finish(rcExpired)
	}
	return nil
}

// Done implements context.Context.  The first call makes the channel and arms
// what closes it: a timer for the deadline and a callback on the parent.
func (c *RequestContext) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done != nil {
		return c.done
	}
	c.done = make(chan struct{})
	if c.state.Load() != rcLive {
		close(c.done)
		c.closed = true
		return c.done
	}
	if !c.deadline.IsZero() {
		c.timer = time.AfterFunc(time.Until(c.deadline), func() { c.finish(rcExpired) })
	}
	if c.parent.Done() != nil {
		c.stopParent = context.AfterFunc(c.parent, func() { c.finish(stateOf(c.parent.Err())) })
	}
	return c.done
}

// Value implements context.Context: the trace under TraceFrom's key, every
// other key from the parent.
func (c *RequestContext) Value(key any) any {
	if key == (traceKey{}) {
		return &c.trace
	}
	return c.parent.Value(key)
}

// finish moves a live context to state and closes Done if it was made; it
// returns the context's error, whichever state won.
func (c *RequestContext) finish(state uint32) error {
	if c.state.CompareAndSwap(rcLive, state) {
		c.mu.Lock()
		if c.done != nil && !c.closed {
			close(c.done)
			c.closed = true
		}
		if c.timer != nil {
			c.timer.Stop()
		}
		if c.stopParent != nil {
			c.stopParent()
		}
		c.mu.Unlock()
	}
	if c.state.Load() == rcExpired {
		return context.DeadlineExceeded
	}
	return context.Canceled
}

// stateOf maps a parent's context error onto the state it ends c in.
func stateOf(err error) uint32 {
	if err == context.DeadlineExceeded {
		return rcExpired
	}
	return rcCanceled
}
