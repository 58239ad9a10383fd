package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed request as the client saw it.
type sample struct {
	kind    string
	group   int           // see request.group
	latency time.Duration // send → body fully read
	bytes   int           // response body size
	failed  bool          // transport error, non-2xx, or oracle mismatch
}

// client is one closed-loop caller: one goroutine, one keep-alive
// connection, one deterministic request stream.
type client struct {
	conn   *conn
	stream *stream
}

// loadGen drives a daemon with a fixed set of clients, phase after phase; the
// clients keep their connections and their place in their streams between
// phases.
type loadGen struct {
	d       *daemon
	o       *oracle
	clients []*client
	// active, when positive, is how many of the clients the next run drives.
	active int
	// suffix is appended to every request path ("?debug=timings" in the
	// traced run's overhead window).
	suffix string
	// onBoundary, when set, is called at the start of every window and at the
	// end of the last, with the boundary's index.
	onBoundary func(i int)
	// onReply, when set, sees the envelope of every query that passed the
	// oracle, on the goroutine of the client whose index it is given.
	onReply func(client int, env *envelope)
	// complaints bounds how many failed operations are explained on stderr.
	complaints atomic.Int32
}

func newLoadGen(d *daemon, o *oracle) *loadGen {
	g := &loadGen{d: d, o: o}
	clients := o.c.clients()
	for i := 0; i < clients; i++ {
		g.clients = append(g.clients, &client{conn: &conn{addr: d.addr}, stream: newStream(o.c, i, clients)})
	}
	return g
}

func (g *loadGen) close() {
	for _, c := range g.clients {
		c.conn.close()
	}
}

// phase is what one run of the clients produced: the samples of each window,
// a request belonging to the window it completed in, and the counts over
// every request executed — one completing after the last window's end is
// counted but is in no window.
type phase struct {
	windows  [][]sample
	executed int
	failed   int
}

// run drives every client for windows × window.
func (g *loadGen) run(windows int, window time.Duration) phase {
	clients := g.clients
	if g.active > 0 {
		clients = clients[:g.active]
	}
	perClient := make([][][]sample, len(clients))
	var executed, failed atomic.Int64
	start := time.Now()
	end := start.Add(time.Duration(windows) * window)
	var wg sync.WaitGroup
	if g.onBoundary != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i <= windows; i++ {
				time.Sleep(time.Until(start.Add(time.Duration(i) * window)))
				g.onBoundary(i)
			}
		}()
	}
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			out := make([][]sample, windows)
			for time.Now().Before(end) {
				r := c.stream.next()
				t0 := time.Now()
				status, body, err := c.conn.do(r, g.suffix)
				t1 := time.Now()
				s := sample{kind: r.kind, group: r.group(), latency: t1.Sub(t0), bytes: len(body)}
				var env *envelope
				why := ""
				if err != nil {
					why = err.Error()
				} else {
					env, why = g.o.checkReply(r, status, body)
				}
				if why != "" {
					s.failed = true
					failed.Add(1)
					if g.complaints.Add(1) <= 5 {
						fmt.Fprintf(os.Stderr, "treeload: FAILED %s %s: %s\n", r.method, r.path, why)
					}
				} else if g.onReply != nil && env != nil {
					g.onReply(i, env)
				}
				executed.Add(1)
				if w := int(t1.Sub(start) / window); w < windows {
					out[w] = append(out[w], s)
				}
			}
			perClient[i] = out
		}(i, c)
	}
	wg.Wait()
	merged := make([][]sample, windows)
	for _, out := range perClient {
		for w := range out {
			merged[w] = append(merged[w], out[w]...)
		}
	}
	return phase{windows: merged, executed: int(executed.Load()), failed: int(failed.Load())}
}

func latenciesMS(ss []sample, kind string) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if kind == "" || s.kind == kind {
			out = append(out, float64(s.latency)/float64(time.Millisecond))
		}
	}
	return out
}

func countFailed(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.failed {
			n++
		}
	}
	return n
}

func flattenWindows(windows [][]sample) []sample {
	var all []sample
	for _, w := range windows {
		all = append(all, w...)
	}
	return all
}
