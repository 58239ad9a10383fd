package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obsv"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/tree"
	"repro/internal/treediff"
	"repro/internal/xmldoc"
)

// span is one timed call into a layer's public function.  Spans of one
// request share req; parent is the id of the span one layer up (0 for the
// outermost).  The layers of a request are replayed one after the other on
// identically warmed twins of the service, so a child's interval does not lie
// inside its parent's: self time is the parent's duration minus the child's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name})
	id := len(t.spans)
	t.spans[id-1].Start = int64(time.Since(t.t0))
	return id
}

// end closes span id and returns its duration in microseconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return float64(s.End-s.Start) / 1e3
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// heapAllocs returns the objects and bytes this process has allocated.  Only
// ReadMemStats is exact to the call: it flushes every processor's allocation
// cache first, where runtime/metrics reads counters that lag by a cache refill.
func heapAllocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// gcEvery is how many allocated bytes the traced replay lets pass between two
// collections.  It runs with the collector off and collects between requests
// at points decided by the allocation count alone, so that pool contents, and
// with them every allocation count, repeat exactly from run to run.
const gcEvery = 64 << 20

// twin is one in-process copy of what treeqd serves: a service and a server
// configured as cmd/treeqd configures them by default.
type twin struct {
	svc *service.Service
	srv *server.Server
}

func newTwin(c *corpus) (*twin, error) {
	reg := obsv.NewRegistry()
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	svc := service.New(
		service.WithShards(8),
		service.WithPlanCacheSize(512),
		service.WithPlanClauseCap(2_000_000),
		service.WithEngineOptions(core.WithPairCacheCap(256)),
		service.WithMetrics(reg),
	)
	for _, d := range c.docs {
		if err := svc.AddXML(d.name, d.states[0].xml); err != nil {
			return nil, err
		}
	}
	srv := server.New(svc,
		server.WithRegistry(reg),
		server.WithSlowQueryLog(250*time.Millisecond, logger),
		server.WithAccessLog(logger),
	)
	return &twin{svc: svc, srv: srv}, nil
}

// layers replays requests at three depths, each on its own twin.
type layers struct {
	o   *oracle
	tr  *tracer
	ctx context.Context
	a   *twin // depth 1: server.Server.ServeHTTP
	b   *twin // depth 2: the equivalent service call
	c   *twin // depth 3: core.PreparedQuery.Exec on the document's engine
	// plans are depth 3's prepared queries, by document and query index.
	plans map[[2]int]*core.PreparedQuery
}

func newLayers(o *oracle, tr *tracer) (*layers, error) {
	l := &layers{o: o, tr: tr, ctx: context.Background(), plans: map[[2]int]*core.PreparedQuery{}}
	for _, t := range []**twin{&l.a, &l.b, &l.c} {
		tw, err := newTwin(o.c)
		if err != nil {
			return nil, err
		}
		*t = tw
	}
	for d := range o.c.docs {
		if err := l.prepare(d); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// prepare (re)binds depth 3's plans of document d to its current engine.
func (l *layers) prepare(d int) error {
	eng, err := l.c.svc.Engine(l.o.c.docs[d].name)
	if err != nil {
		return err
	}
	for qi, q := range l.o.c.queries {
		pq, err := eng.Prepare(q.lang, q.text)
		if err != nil {
			return err
		}
		l.plans[[2]int{d, qi}] = pq
	}
	return nil
}

// call is what one depth measured for one request.
type call struct {
	us     float64
	allocs float64
}

// replayed is one request's measurements at the three depths, plus the
// service-level sub-steps of the request kinds that have them.
type replayed struct {
	r                 request
	server, svc, core call
	respBytes         int
	aggUS             float64 // service.Aggregate, corpus queries only
	execs             []call  // depth 3, one per Exec (a corpus request has one per document)
	err               string
}

func measure(tr *tracer, name string, parent, req int, f func()) (call, int) {
	a0, _ := heapAllocs()
	id := tr.begin(name, parent, req)
	f()
	us := tr.end(id)
	a1, _ := heapAllocs()
	return call{us: us, allocs: float64(a1 - a0)}, id
}

// replay runs request r (the i-th of the stream) at every depth and checks
// each depth's answer against the oracle.
func (l *layers) replay(i int, r request) replayed {
	out := replayed{r: r}
	fail := func(depth, why string) {
		if why != "" && out.err == "" {
			out.err = depth + ": " + why
		}
	}
	c := l.o.c

	// Depth 1.
	req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	var top int
	out.server, top = measure(l.tr, "server.ServeHTTP", 0, i, func() { l.a.srv.ServeHTTP(rec, req) })
	out.respBytes = rec.Body.Len()
	fail("server", l.o.check(r, rec.Code, rec.Body.Bytes()))

	switch {
	case r.q < 0: // PUT: parsing is the handler's work, the update the service's
		name := c.docs[r.doc].name
		t, err := xmldoc.Parse(string(r.body))
		if err != nil {
			fail("service", err.Error())
			return out
		}
		var oc service.UpdateOutcome
		out.svc, _ = measure(l.tr, "service.UpdateDoc", top, i, func() { oc, err = l.b.svc.UpdateDoc(name, t) })
		if err != nil {
			fail("service", err.Error())
		} else if oc.Version != r.version {
			fail("service", fmt.Sprintf("version %d, want %d", oc.Version, r.version))
		}
		// Depth 3 has no part in an update; its twin is kept in step.
		if _, err := l.c.svc.UpdateDoc(name, t); err != nil {
			fail("core", err.Error())
		} else if err := l.prepare(r.doc); err != nil {
			fail("core", err.Error())
		}

	case r.doc < 0: // corpus query
		q := c.queries[r.q]
		a0, _ := heapAllocs()
		mid := l.tr.begin("service.QueryCorpus+Aggregate", top, i)
		id := l.tr.begin("service.QueryCorpus", mid, i)
		results := l.b.svc.QueryCorpus(l.ctx, q.lang, q.text)
		l.tr.end(id)
		id = l.tr.begin("service.Aggregate", mid, i)
		agg := service.Aggregate(results, q.limit)
		out.aggUS = l.tr.end(id)
		out.svc.us = l.tr.end(mid)
		a1, _ := heapAllocs()
		out.svc.allocs = float64(a1 - a0)
		want := l.o.table[expectKey{-1, 0, r.q}]
		if agg.Total != want.total || agg.Truncated != want.truncated || len(agg.Failed) > 0 {
			fail("service", fmt.Sprintf("total %d truncated %v failed %d, want %d %v 0", agg.Total, agg.Truncated, len(agg.Failed), want.total, want.truncated))
		}
		perDoc := make([]*core.Result, len(c.docs))
		out.execs = make([]call, 0, len(c.docs))
		a0, _ = heapAllocs()
		for d := range c.docs {
			id := l.tr.begin("core.Exec", mid, i)
			res, _, err := l.plans[[2]int{d, r.q}].Exec(l.ctx)
			us := l.tr.end(id)
			if err != nil {
				fail("core", err.Error())
				continue
			}
			perDoc[d] = res
			out.execs = append(out.execs, call{us: us})
			out.core.us += us
		}
		a1, _ = heapAllocs()
		out.core.allocs = float64(a1 - a0)
		var all []entry
		for d, res := range perDoc {
			if res != nil {
				all = append(all, flatten(c.docs[d].name, res)...)
			}
			if d < len(out.execs) { // the pass's allocations, spread evenly over its executions
				out.execs[d].allocs = out.core.allocs / float64(len(out.execs))
			}
		}
		mergeCorpus(all)
		if got := cut(all, q.limit); got != want {
			fail("core", fmt.Sprintf("got %+v, want %+v", got, want))
		}

	default: // single-document query
		q := c.queries[r.q]
		name := c.docs[r.doc].name
		want := l.o.table[expectKey{r.doc, r.state, r.q}]
		var res *core.Result
		var version uint64
		var err error
		var mid int
		out.svc, mid = measure(l.tr, "service.QueryVersioned", top, i, func() {
			res, _, version, err = l.b.svc.QueryVersioned(l.ctx, name, q.lang, q.text)
		})
		if err != nil {
			fail("service", err.Error())
		} else if got := cut(flatten(name, res), q.limit); got != want || version != r.version {
			fail("service", fmt.Sprintf("got %+v at version %d, want %+v at %d", got, version, want, r.version))
		}
		out.core, _ = measure(l.tr, "core.Exec", mid, i, func() { res, _, err = l.plans[[2]int{r.doc, r.q}].Exec(l.ctx) })
		out.execs = []call{out.core}
		if err != nil {
			fail("core", err.Error())
		} else if got := cut(flatten(name, res), q.limit); got != want {
			fail("core", fmt.Sprintf("got %+v, want %+v", got, want))
		}
	}
	return out
}

// repeatableMean is the mean of f over the requests with every request
// counted at the lowest value any identical request showed.  An allocation
// count is decided by the request and the state it meets, except that now and
// then the runtime adds an object of its own (a timer heap growing, a
// formatting buffer a digit longer); those only ever add, so the minimum over
// identical requests is the count that repeats from run to run.
func repeatableMean(reps []replayed, f func(replayed) float64) float64 {
	type identity struct{ doc, state, q, flipped int }
	lowest := map[identity]float64{}
	for _, rep := range reps {
		id := identity{rep.r.doc, rep.r.state, rep.r.q, rep.r.flipped}
		if v, ok := lowest[id]; !ok || f(rep) < v {
			lowest[id] = f(rep)
		}
	}
	var sum float64
	for _, rep := range reps {
		sum += lowest[identity{rep.r.doc, rep.r.state, rep.r.q, rep.r.flipped}]
	}
	return ratio(sum, float64(len(reps)))
}

// poolRatio is hits / (hits + misses) of one pool between two snapshots.
func poolRatio(h0, m0, h1, m1 int64) float64 {
	return ratio(float64(h1-h0), float64(h1-h0+m1-m0))
}

// inProcess replays the first traceN requests of the workload's one-client
// stream through the three depths on one goroutine, with one processor and
// the collector under its own control, and fills in the metrics of the server,
// service, core and pool layers.
func inProcess(o *oracle, tr *tracer, m map[string]float64) (attempted, failed int, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()

	l, err := newLayers(o, tr)
	if err != nil {
		return 0, 0, err
	}
	// Warm every plan at depths 1 and 2 (depth 3's are prepared already and
	// executed here once, so no artifact is built inside a span).
	warmTr := &tracer{t0: time.Now()}
	lw := *l
	lw.tr = warmTr
	for i, r := range o.c.warmRequests() {
		if rep := lw.replay(i, r); rep.err != "" {
			return 0, 0, fmt.Errorf("traced warm-up: %s", rep.err)
		}
	}

	pools0 := obsv.Pools()
	cand0, size0, hist0, _ := core.SimilarCounters()
	svc0 := l.b.svc.Stats()
	runtime.GC()
	_, lastGC := heapAllocs()

	st := newStream(o.c, 0, 1)
	reps := make([]replayed, 0, o.c.traceN)
	for i := 0; i < o.c.traceN; i++ {
		rep := l.replay(i, st.next())
		if rep.err != "" {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "treeload: FAILED traced %s %s: %s\n", rep.r.method, rep.r.path, rep.err)
			}
		}
		reps = append(reps, rep)
		if _, b := heapAllocs(); b-lastGC > gcEvery {
			runtime.GC()
			_, lastGC = heapAllocs()
		}
	}
	attempted = len(reps)
	n := float64(attempted)

	col := func(f func(replayed) (float64, bool)) []float64 {
		var xs []float64
		for _, rep := range reps {
			if v, ok := f(rep); ok {
				xs = append(xs, v)
			}
		}
		return xs
	}
	typ := func(f func(replayed) float64) float64 {
		return typical(len(reps), func(i int) int { return reps[i].r.group() }, func(i int) float64 { return f(reps[i]) })
	}
	m["server.handler_us"] = typ(func(r replayed) float64 { return r.server.us })
	m["server.self_us"] = typ(func(r replayed) float64 { return r.server.us - r.svc.us })
	m["server.allocs_per_req"] = repeatableMean(reps, func(r replayed) float64 { return r.server.allocs })
	var respBytes float64
	for _, rep := range reps {
		respBytes += float64(rep.respBytes)
	}
	m["server.resp_bytes"] = respBytes / n
	m["service.call_us"] = typ(func(r replayed) float64 { return r.svc.us })
	m["service.self_us"] = typ(func(r replayed) float64 { return r.svc.us - r.core.us })
	m["core.exec_us"] = typ(func(r replayed) float64 { return r.core.us })
	isCorpus := func(r replayed) bool { return r.r.q >= 0 && r.r.doc < 0 }
	m["service.aggregate_us"] = median(col(func(r replayed) (float64, bool) { return r.aggUS, isCorpus(r) }))
	m["service.update_us"] = median(col(func(r replayed) (float64, bool) { return r.svc.us, r.r.q < 0 }))

	for _, lang := range langs {
		var us, allocs []float64
		for _, rep := range reps {
			if rep.r.q >= 0 && o.c.queries[rep.r.q].lang == lang {
				for _, ex := range rep.execs {
					us = append(us, ex.us)
					allocs = append(allocs, ex.allocs)
				}
			}
		}
		m["core.exec_us."+lang] = median(us)
		m["core.exec_allocs."+lang] = median(allocs)
	}

	svc1 := l.b.svc.Stats()
	hits := float64(svc1.PlanCacheHits - svc0.PlanCacheHits)
	misses := float64(svc1.PlanCacheMisses - svc0.PlanCacheMisses)
	m["service.plan_hit_ratio"] = ratio(hits, hits+misses)
	m["service.plan_evictions_per_kreq"] = float64(svc1.PlanCacheEvictions-svc0.PlanCacheEvictions) / n * 1000
	for phase, d := range l.b.svc.UpdatePhaseTotals() {
		m["service.update_phase_ms."+phase] = float64(d) / float64(time.Millisecond)
	}
	m["service.patched_share"] = ratio(float64(svc1.PatchedUpdates), float64(svc1.Updates))
	m["service.plans_skipped_share"] = ratio(float64(svc1.PlansSkippedByLabelSet), float64(svc1.PlanReprepares))
	m["index.hit_ratio"] = ratio(float64(svc1.Index.Hits()), float64(svc1.Index.Hits()+svc1.Index.Builds()))
	m["index.pair_evictions_per_kreq"] = float64(svc1.Index.PairEvictions) / n * 1000

	cand1, size1, hist1, _ := core.SimilarCounters()
	m["core.similar_prune_ratio"] = ratio(float64(size1-size0+hist1-hist0), float64(cand1-cand0))
	pools1 := obsv.Pools()
	m["obsv.pool_hit_ratio.bitset"] = poolRatio(pools0.BitsetPoolHits, pools0.BitsetPoolMisses, pools1.BitsetPoolHits, pools1.BitsetPoolMisses)
	m["obsv.pool_hit_ratio.relstore"] = poolRatio(pools0.RelstoreSideHits, pools0.RelstoreSideMisses, pools1.RelstoreSideHits, pools1.RelstoreSideMisses)
	m["obsv.pool_hit_ratio.ted"] = poolRatio(pools0.TedDPHits, pools0.TedDPMisses, pools1.TedDPHits, pools1.TedDPMisses)

	staticProbes(o.c, m)
	return attempted, failed, nil
}

// probeRuns is how often each static probe repeats; it reports the median.
const probeRuns = 5

func timeUS(f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start)) / 1e3
}

// staticProbes times the calls no request of a warmed daemon makes: a cold
// Prepare per language, the first use of each index artifact, one reference
// edit through diff and patch, and parsing.  All act on the workload's first
// document.
func staticProbes(c *corpus, m map[string]float64) {
	doc := c.docs[0].states[0]
	knodes := float64(doc.tree.Len()) / 1000

	for _, lang := range langs {
		var us []float64
		for _, q := range c.queries {
			if q.lang != lang {
				continue
			}
			for i := 0; i < probeRuns; i++ {
				eng := core.New(doc.tree)
				us = append(us, timeUS(func() { eng.Prepare(q.lang, q.text) }))
			}
		}
		m["core.prepare_us."+lang] = median(us)
	}

	builds := []struct {
		name string
		f    func(ix *index.Index)
	}{
		{"xasr", func(ix *index.Index) { ix.XASR() }},
		{"label_nodes", func(ix *index.Index) { ix.NodesWithLabel("item") }},
		{"label_mask", func(ix *index.Index) { ix.LabelMask("item") }},
		{"label_rows", func(ix *index.Index) { ix.LabelRows("item") }},
		{"pairs", func(ix *index.Index) { ix.StructuralPairs(tree.Descendant, "item", "keyword") }},
		{"postings", func(ix *index.Index) { ix.PostingList("keyword") }},
		{"ted", func(ix *index.Index) { ix.TED() }},
	}
	us := make([][]float64, len(builds))
	for i := 0; i < probeRuns; i++ {
		ix := index.New(doc.tree)
		for b, build := range builds {
			us[b] = append(us[b], timeUS(func() { build.f(ix) }))
		}
	}
	for b, build := range builds {
		m["index.build_us."+build.name] = median(us[b])
	}

	// The reference edit: one <mailbox/> leaf appended to an item.
	edited := newState(applyEdits(doc.tree, editSites{parent: doc.tree.NodesWithLabel("item")[0]}, bitNode)).tree
	var diffUS, patchUS []float64
	for i := 0; i < probeRuns; i++ {
		ix := index.New(doc.tree)
		for _, build := range builds {
			build.f(ix)
		}
		var sc *treediff.Script
		diffUS = append(diffUS, timeUS(func() { sc, _ = treediff.Diff(doc.tree, edited) }))
		spec := index.PatchSpec{Start: sc.Start, OldLen: sc.OldLen, NewLen: sc.NewLen, Touched: sc.Touched, ShapePreserving: sc.ShapePreserving}
		patchUS = append(patchUS, timeUS(func() { index.Patch(ix, edited, spec) }))
	}
	m["treediff.diff_us"] = median(diffUS)
	m["index.patch_us"] = median(patchUS)

	var parseUS, tokUS []float64
	for i := 0; i < probeRuns; i++ {
		parseUS = append(parseUS, timeUS(func() { xmldoc.Parse(doc.xml) }))
		tokUS = append(tokUS, timeUS(func() { xmldoc.Tokenize(doc.xml) }))
	}
	m["xmldoc.parse_us_per_knode"] = median(parseUS) / knodes
	m["xmldoc.tokenize_us_per_knode"] = median(tokUS) / knodes
}

// fanoutRuns is how many corpus requests the fan-out probe times.
const fanoutRuns = 200

// fanoutProbe times QueryCorpus with the process's real processor count
// against the sum of its per-document executions run one after the other.
func fanoutProbe(c *corpus, m map[string]float64) error {
	m["service.fanout_us"], m["service.fanout_speedup"] = 0, 0
	tw, err := newTwin(c)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var wall, serial []float64
	st := newStream(c, 0, 1)
	for i := 0; i < fanoutRuns; i++ {
		r := st.next()
		if r.q < 0 || r.doc >= 0 {
			continue
		}
		q := c.queries[r.q]
		tw.svc.QueryCorpus(ctx, q.lang, q.text) // plans and artifacts warm
		wall = append(wall, timeUS(func() { tw.svc.QueryCorpus(ctx, q.lang, q.text) }))
		var sum float64
		for _, doc := range c.docs {
			sum += timeUS(func() { tw.svc.Query(ctx, doc.name, q.lang, q.text) })
		}
		serial = append(serial, sum)
	}
	if len(wall) > 0 {
		m["service.fanout_us"] = median(wall)
		m["service.fanout_speedup"] = ratio(median(serial), median(wall))
	}
	return nil
}

// overheadWindows splits each of the two phases whose throughputs give
// trace.overhead_share; each phase reports its median window.
const overheadWindows = 4

// daemonProbe measures what only a real daemon shows: client latencies by
// kind, the transport's share, shed requests, the ?debug=timings stage echo
// and what asking for it costs.  One cold start, then three phases of
// seconds/4 each: one connection, every client, every client with timings.
func daemonProbe(cfg config, o *oracle, m map[string]float64) (attempted, failed int, rejected float64, err error) {
	d, _, err := startMeasured(cfg, o, 1)
	if err != nil {
		return 0, 0, 0, err
	}
	defer d.stop()
	g := newLoadGen(d, o)
	defer g.close()
	window := time.Duration(cfg.seconds) * time.Second / 4

	g.active = 1
	g.run(1, warmUp/2)
	one := g.run(1, window)
	g.active = 0
	plain := g.run(overheadWindows, window/overheadWindows)

	perClient := make([]map[string][]float64, len(g.clients))
	for i := range perClient {
		perClient[i] = map[string][]float64{}
	}
	g.suffix = "?debug=timings"
	g.onReply = func(client int, env *envelope) {
		if env.Timings != nil {
			for _, s := range env.Timings.Stages {
				perClient[client][s.Stage] = append(perClient[client][s.Stage], float64(s.NS)/1e3)
			}
		}
	}
	timed := g.run(overheadWindows, window/overheadWindows)
	after, err := d.scrape()
	if err != nil {
		return 0, 0, 0, err
	}

	ones := one.windows[0]
	m["client.http_us"] = typical(len(ones), func(i int) int { return ones[i].group }, func(i int) float64 { return float64(ones[i].latency) / 1e3 })
	m["client.transport_us"] = m["client.http_us"] - m["server.handler_us"]
	pooled := flattenWindows(plain.windows)
	m["client.latency_p99_ms"] = percentile(latenciesMS(pooled, ""), 99)
	for _, k := range kinds {
		m["client.latency_p50_ms."+k] = percentile(latenciesMS(pooled, k), 50)
	}
	for _, s := range []string{"gate", "plan", "exec", "aggregate"} {
		var us []float64
		for _, stages := range perClient {
			us = append(us, stages[s]...)
		}
		m["server.stage_us."+s] = median(us)
	}
	rps := func(p phase) float64 {
		return median(perWindow(p.windows, func(w []sample) float64 { return float64(len(w) - countFailed(w)) }))
	}
	m["trace.overhead_share"] = 1 - ratio(rps(timed), rps(plain))
	attempted = one.executed + plain.executed + timed.executed
	failed = one.failed + plain.failed + timed.failed
	m["server.rejected_share"] = ratio(after.rejected, float64(attempted))
	return attempted, failed, after.rejected, nil
}

// perLayer is every per-layer metric, in report order, with its unit.
var perLayer = func() []metric {
	var out []metric
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metric{name: n, unit: unit})
		}
	}
	add("ms", "client.latency_p99_ms")
	for _, k := range kinds {
		add("ms", "client.latency_p50_ms."+k)
	}
	add("us", "client.transport_us", "server.handler_us", "server.self_us")
	add("count", "server.allocs_per_req")
	add("B", "server.resp_bytes")
	add("ratio", "server.rejected_share")
	add("us", "server.stage_us.gate", "server.stage_us.plan", "server.stage_us.exec", "server.stage_us.aggregate")
	add("us", "service.call_us", "service.self_us")
	add("ratio", "service.plan_hit_ratio")
	add("count", "service.plan_evictions_per_kreq")
	add("us", "service.fanout_us", "service.aggregate_us")
	add("ratio", "service.fanout_speedup")
	add("us", "service.update_us")
	add("ms", "service.update_phase_ms.diff", "service.update_phase_ms.patch", "service.update_phase_ms.build", "service.update_phase_ms.reprepare", "service.update_phase_ms.swap")
	add("ratio", "service.patched_share", "service.plans_skipped_share")
	for _, l := range langs {
		add("us", "core.exec_us."+l)
	}
	for _, l := range langs {
		add("count", "core.exec_allocs."+l)
	}
	for _, l := range langs {
		add("us", "core.prepare_us."+l)
	}
	add("ratio", "core.similar_prune_ratio")
	add("us", "index.build_us.xasr", "index.build_us.label_nodes", "index.build_us.label_mask", "index.build_us.label_rows", "index.build_us.pairs", "index.build_us.postings", "index.build_us.ted", "index.patch_us")
	add("ratio", "index.hit_ratio")
	add("count", "index.pair_evictions_per_kreq")
	add("us", "xmldoc.parse_us_per_knode", "xmldoc.tokenize_us_per_knode", "treediff.diff_us")
	add("ratio", "obsv.pool_hit_ratio.bitset", "obsv.pool_hit_ratio.relstore", "obsv.pool_hit_ratio.ted", "trace.overhead_share")
	return out
}()

// layerSumBound is the largest share of the one-connection client latency the
// layers may leave unaccounted for.
const layerSumBound = 0.15

// runTraced is the traced run: the in-process replay, the fan-out probe and
// the daemon probe, then the layer-sum check.
func runTraced(cfg config, o *oracle) (result, error) {
	m := map[string]float64{}
	// Room for every span up front: a growing slice would allocate inside them.
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, o.c.traceN*(6+len(o.c.docs)))}
	attempted, failed, err := inProcess(o, tr, m)
	if err != nil {
		return result{}, err
	}
	if err := fanoutProbe(o.c, m); err != nil {
		return result{}, err
	}
	dAttempted, dFailed, rejected, err := daemonProbe(cfg, o, m)
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(cfg.out, o.c.name+".spans.json")
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Printf("# %d spans of %d requests in %s\n", len(tr.spans), attempted, path)

	sum := m["client.transport_us"] + m["server.self_us"] + m["service.self_us"] + m["core.exec_us"]
	unaccounted := m["client.http_us"] - sum
	share := ratio(unaccounted, m["client.http_us"])
	fmt.Printf("# layer-sum %s: client.transport_us %.1f + server.self_us %.1f + service.self_us %.1f + core.exec_us %.1f = %.1f of one-connection client latency %.1f; unaccounted_us %.1f (%.1f%%)\n",
		o.c.name, m["client.transport_us"], m["server.self_us"], m["service.self_us"], m["core.exec_us"], sum, m["client.http_us"], unaccounted, share*100)

	res := result{attempted: attempted + dAttempted, failed: failed + dFailed, rejected: rejected}
	for _, pm := range perLayer {
		res.metrics = append(res.metrics, metric{pm.name, m[pm.name], pm.unit})
	}
	if share > layerSumBound || share < -layerSumBound {
		res.problem = fmt.Sprintf("layer-sum check: %.1f%% of the one-connection client latency is unaccounted for (bound %.0f%%)", share*100, layerSumBound*100)
	}
	return res, nil
}
