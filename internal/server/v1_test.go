package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/service"
	"repro/internal/tree"
)

// TestV1QueryEnvelope: POST /v1/query speaks the unified envelope for a
// non-ranked language — results carry doc/doc_version/node and no score, the
// version tag and request ID are stamped, and a limit truncates while total
// keeps the full count.
func TestV1QueryEnvelope(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(4))

	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword",
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["version"] != "v1" {
		t.Errorf("version = %v, want v1", body["version"])
	}
	if id, _ := body["request_id"].(string); len(id) != 16 {
		t.Errorf("request_id = %v, want 16 hex digits", body["request_id"])
	}
	results, _ := body["results"].([]any)
	if len(results) != 4 || int(body["total"].(float64)) != 4 || body["truncated"].(bool) {
		t.Fatalf("results=%d total=%v truncated=%v, want 4/4/false",
			len(results), body["total"], body["truncated"])
	}
	first := results[0].(map[string]any)
	if first["doc"] != "doc.xml" || first["doc_version"].(float64) != 1 {
		t.Errorf("entry identity: %v", first)
	}
	if _, ok := first["score"]; ok {
		t.Errorf("non-ranked route carries a score: %v", first)
	}
	if _, ok := first["node"]; !ok {
		t.Errorf("entry missing node: %v", first)
	}

	// Tuple languages carry the full answer with the head as the node.
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangTwig, "query": "//item[name]",
	})
	if code != http.StatusOK {
		t.Fatalf("twig status %d: %v", code, body)
	}
	results, _ = body["results"].([]any)
	if len(results) == 0 {
		t.Fatal("twig returned no results")
	}
	entry := results[0].(map[string]any)
	answer, _ := entry["answer"].([]any)
	if len(answer) == 0 || entry["node"].(float64) != answer[0].(float64) {
		t.Errorf("answer entry: node %v, answer %v — node must be the head", entry["node"], answer)
	}

	// A limit cuts results but total keeps the full count.
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword", "limit": 2,
	})
	if code != http.StatusOK {
		t.Fatalf("limit status %d", code)
	}
	results, _ = body["results"].([]any)
	if len(results) != 2 || !body["truncated"].(bool) || int(body["total"].(float64)) != 4 {
		t.Errorf("limit=2: results=%d truncated=%v total=%v",
			len(results), body["truncated"], body["total"])
	}
}

// TestV1LimitBuildsOnlyKeptEntries: a 1,000-match result under limit 3 keeps
// the full count in total, returns three entries — over both routes that
// take a limit — and writing the envelope costs the same allocations as for
// a 10-match result: entries the limit throws away are never written.
func TestV1LimitBuildsOnlyKeptEntries(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(1000))

	check := func(route string, body map[string]any) {
		t.Helper()
		results, _ := body["results"].([]any)
		if len(results) != 3 || int(body["total"].(float64)) != 1000 || !body["truncated"].(bool) {
			t.Errorf("%s: results=%d total=%v truncated=%v, want 3/1000/true",
				route, len(results), body["total"], body["truncated"])
		}
	}
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword", "limit": 3,
	})
	if code != http.StatusOK {
		t.Fatalf("query: status %d (%v)", code, body)
	}
	check("/v1/query", body)
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/prepared", map[string]any{
		"doc": "doc.xml", "lang": core.LangTwig, "query": "//item[name]",
	})
	if code != http.StatusCreated {
		t.Fatalf("register: status %d (%v)", code, body)
	}
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/prepared/"+body["id"].(string)+"?limit=3", nil)
	if code != http.StatusOK {
		t.Fatalf("exec: status %d (%v)", code, body)
	}
	check("/v1/prepared/{id}", body)

	allocs := func(matches int) float64 {
		res := &core.Result{Answers: make([]cq.Answer, matches)}
		for i := range res.Answers {
			res.Answers[i] = cq.Answer{tree.NodeID(i), tree.NodeID(i + 1)}
		}
		// One writer refilled, as the pool hands it out: the race detector
		// makes sync.Pool drop a share of its Puts at random.
		ew := newEnvWriter()
		defer ew.release()
		return testing.AllocsPerRun(20, func() {
			env := envelope{RequestID: "r"}
			ew.reset()
			ew.result(&env, "doc.xml", 1, res, 3)
			ew.finish(&env)
			if n := bytes.Count(ew.buf, []byte(`"doc":`)); n != 3 || env.Total != matches || !env.Truncated {
				t.Fatalf("envelope: results=%d total=%d truncated=%v", n, env.Total, env.Truncated)
			}
		})
	}
	if few, many := allocs(10), allocs(1000); few != many || many > 1 {
		t.Errorf("envelope allocations: %.0f for 10 matches, %.0f for 1,000; want equal and at most one", few, many)
	}
}

// TestV1SimilarQuery: the ranked route end to end over HTTP — scores present,
// ascending, and capped at k.
func TestV1SimilarQuery(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(5))

	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangSimilar, "query": "k=3 description(keyword)", "plan": true,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	results, _ := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("got %d results, want k=3: %v", len(results), body)
	}
	prev := -1.0
	for _, e := range results {
		m := e.(map[string]any)
		score, ok := m["score"].(float64)
		if !ok {
			t.Fatalf("ranked entry without score: %v", m)
		}
		if score < prev {
			t.Fatalf("scores not ascending: %v", results)
		}
		prev = score
	}
	if plan, _ := body["plan"].(map[string]any); plan == nil || plan["language"] != core.LangSimilar {
		t.Errorf("plan echo: %v", body["plan"])
	}
}

// TestV1SimilarPlanNotes: a similarity execution keeps its candidate funnel
// as counts and renders it only when the plan is written.  The sentences
// must stay byte for byte what the routes wrote as notes when they formatted
// at execution time, in Plan.String and in the envelope's "plan", on the
// pruned route and on the exhaustive one (Naive).
func TestV1SimilarPlanNotes(t *testing.T) {
	const query = "k=2 item(zz yy(keyword))"
	const pattern = "pattern with 4 nodes, 2 keyroots, 4 distinct labels; k=2 maxdist=-1"
	const walk = "candidates walked band by band in size distance, each band in document order; size and label-histogram bounds prune against the (distance, pre) result order before any kernel call"
	for _, c := range []struct {
		strategy  core.Strategy
		technique string
		notes     []string
		funnel    core.SimilarFunnel
	}{
		{core.Auto, "top-k tree edit distance (posting-list lower bounds + keyroots kernel)",
			[]string{pattern, walk, "similar: 22 candidates, 16 size-pruned, 4 histogram-pruned, 2 kernel calls"},
			core.SimilarFunnel{Searched: true, Candidates: 22, SizePruned: 16, HistPruned: 4}},
		{core.Naive, "exhaustive tree edit distance (keyroots kernel, no pruning)",
			[]string{pattern, "similar: exhaustive over 22 subtrees"},
			core.SimilarFunnel{Searched: true, Exhaustive: true, Candidates: 22}},
	} {
		eng, err := core.FromXML(siteXML(5), core.WithStrategy(c.strategy))
		if err != nil {
			t.Fatal(err)
		}
		hits, plan, err := eng.Similar(query)
		if err != nil || len(hits) != 2 {
			t.Fatalf("%v: %d hits, %v", c.strategy, len(hits), err)
		}
		if plan.Similar != c.funnel {
			t.Errorf("%v: funnel %+v, want %+v", c.strategy, plan.Similar, c.funnel)
		}
		if want := "[similar via " + c.technique + "] " + strings.Join(c.notes, "; "); plan.String() != want {
			t.Errorf("%v: Plan.String() =\n%s\nwant\n%s", c.strategy, plan.String(), want)
		}

		ts, _ := newTestServer(t, []service.Option{service.WithEngineOptions(core.WithStrategy(c.strategy))})
		putDoc(t, ts.URL, "doc.xml", siteXML(5))
		resp, err := http.Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(`{"doc":"doc.xml","lang":"similar","query":"`+query+`","plan":true}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: status %d, %v", c.strategy, resp.StatusCode, err)
		}
		want := `"technique":"` + c.technique + `","notes":["` + strings.Join(c.notes, `","`) + `"],"prepare_ns":`
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("%v: envelope plan\n%s\nlacks\n%s", c.strategy, body, want)
		}
	}
}

// TestV1CorpusSimilarRanked: the corpus fan-out merges per-document k-heaps
// into one globally ranked results array with per-document versions.
func TestV1CorpusSimilarRanked(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "a.xml", siteXML(2))
	putDoc(t, ts.URL, "b.xml", siteXML(3))
	putDoc(t, ts.URL, "b.xml", siteXML(4)) // bump b to version 2

	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/corpus/query", map[string]any{
		"lang": core.LangSimilar, "query": "k=2 description(keyword)", "limit": 3,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["version"] != "v1" || int(body["docs"].(float64)) != 2 {
		t.Errorf("envelope header: version=%v docs=%v", body["version"], body["docs"])
	}
	results, _ := body["results"].([]any)
	if len(results) != 3 || !body["truncated"].(bool) {
		t.Fatalf("results=%d truncated=%v, want 3/true (2 docs × k=2, limit 3)",
			len(results), body["truncated"])
	}
	prev := -1.0
	for _, e := range results {
		m := e.(map[string]any)
		score := m["score"].(float64)
		if score < prev {
			t.Fatalf("corpus results not globally ranked: %v", results)
		}
		prev = score
		wantVersion := 1.0
		if m["doc"] == "b.xml" {
			wantVersion = 2.0
		}
		if m["doc_version"].(float64) != wantVersion {
			t.Errorf("doc %v version %v, want %v", m["doc"], m["doc_version"], wantVersion)
		}
	}
}

// TestV1PreparedEnvelope: registration through /v1/prepared and execution
// through /v1/prepared/{id} carry the envelope (with the prepared id).
func TestV1PreparedEnvelope(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(3))

	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/prepared", map[string]any{
		"doc": "doc.xml", "lang": core.LangSimilar, "query": "k=2 description(keyword)",
	})
	if code != http.StatusCreated {
		t.Fatalf("register: status %d (%v)", code, body)
	}
	id := body["id"].(string)

	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/prepared/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("exec: status %d (%v)", code, body)
	}
	if body["id"] != id || body["version"] != "v1" {
		t.Errorf("envelope: id=%v version=%v", body["id"], body["version"])
	}
	results, _ := body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results = %v, want k=2 ranked hits", body["results"])
	}
	if _, ok := results[0].(map[string]any)["score"]; !ok {
		t.Errorf("prepared similar exec lost scores: %v", results[0])
	}
	if body["plan"] == nil {
		t.Errorf("prepared exec missing plan echo")
	}
}

// TestV1ErrorEnvelope: every error body carries the stable code enum and the
// request ID, on every route.
func TestV1ErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(1))

	cases := []struct {
		path string
		req  map[string]any
		code int
		enum string
	}{
		{"/v1/query", map[string]any{"doc": "nope.xml", "lang": core.LangXPath, "query": "//a"},
			http.StatusNotFound, "not_found"},
		{"/v1/query", map[string]any{"doc": "doc.xml", "lang": core.LangXPath, "query": "//["},
			http.StatusBadRequest, "bad_request"},
		{"/v1/corpus/query", map[string]any{"lang": core.LangXPath, "query": "//a", "bogus": 1},
			http.StatusBadRequest, "bad_request"},
		{"/v1/prepared/p99999999", nil, http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		code, body := doJSON(t, http.MethodPost, ts.URL+tc.path, tc.req)
		if code != tc.code {
			t.Fatalf("%s: status %d, want %d (%v)", tc.path, code, tc.code, body)
		}
		if body["code"] != tc.enum {
			t.Errorf("%s: code = %v, want %q", tc.path, body["code"], tc.enum)
		}
		if id, _ := body["request_id"].(string); len(id) != 16 {
			t.Errorf("%s: error body missing request_id: %v", tc.path, body)
		}
		if msg, _ := body["error"].(string); msg == "" {
			t.Errorf("%s: error body lost the error message: %v", tc.path, body)
		}
	}
}

// TestV1NegativeOrMalformedBoundsRejected: a negative limit or timeout in a
// body, and a ?limit= or ?timeout_ms= that is not a non-negative integer,
// are a 400 bad_request naming the field.  A negative or unparsable limit
// used to read as 0, "every match", and return the whole answer with 200.
func TestV1NegativeOrMalformedBoundsRejected(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(3))
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/prepared", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword",
	})
	if code != http.StatusCreated {
		t.Fatalf("register: status %d (%v)", code, body)
	}
	exec := "/v1/prepared/" + body["id"].(string)

	query := func(extra map[string]any) map[string]any {
		req := map[string]any{"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword"}
		for k, v := range extra {
			req[k] = v
		}
		return req
	}
	corpus := func(extra map[string]any) map[string]any {
		req := query(extra)
		delete(req, "doc")
		return req
	}
	cases := []struct {
		path  string
		req   map[string]any
		field string
	}{
		{"/v1/query", query(map[string]any{"limit": -1}), "limit"},
		{"/v1/query", query(map[string]any{"timeout_ms": -5}), "timeout_ms"},
		{"/v1/corpus/query", corpus(map[string]any{"limit": -1}), "limit"},
		{"/v1/corpus/query", corpus(map[string]any{"timeout_ms": -1}), "timeout_ms"},
		{"/v1/corpus/query", corpus(map[string]any{"doc_timeout_ms": -1}), "doc_timeout_ms"},
		{"/v1/prepared", query(map[string]any{"timeout_ms": -1}), "timeout_ms"},
		{exec + "?limit=-1", nil, "limit"},
		{exec + "?limit=abc", nil, "limit"},
		{exec + "?limit=", nil, ""}, // empty: absent
		{exec + "?timeout_ms=-1", nil, "timeout_ms"},
		{exec + "?timeout_ms=1s", nil, "timeout_ms"},
		{exec + "?limit=2&timeout_ms=1000", nil, ""},
	}
	for _, tc := range cases {
		code, body := doJSON(t, http.MethodPost, ts.URL+tc.path, tc.req)
		if tc.field == "" {
			if code != http.StatusOK {
				t.Errorf("%s: status %d, want 200 (%v)", tc.path, code, body)
			}
			continue
		}
		if code != http.StatusBadRequest || body["code"] != CodeBadRequest {
			t.Errorf("%s %v: status %d code %v, want 400 bad_request", tc.path, tc.req, code, body["code"])
			continue
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, tc.field) {
			t.Errorf("%s %v: error %q does not name %s", tc.path, tc.req, msg, tc.field)
		}
	}
}

// TestV1DeepQueryTextRejected: a similarity pattern or an XPath text nested a
// quarter of a million levels deep is a 400 bad_request, and the daemon goes
// on answering.  The goroutine stack is capped at 16 MiB for the test, so a
// parser that recursed once per level would die of a stack overflow here — a
// fatal error that no recover can turn into a response.
func TestV1DeepQueryTextRejected(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(16 << 20))
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(3))

	const depth = 1 << 18
	deepPath := "/a" + strings.Repeat("[a", depth) + strings.Repeat("]", depth)
	for lang, text := range map[string]string{
		core.LangSimilar: "k=1 " + strings.Repeat("a(", depth) + "a" + strings.Repeat(")", depth),
		core.LangXPath:   deepPath,
		core.LangTwig:    deepPath,
		core.LangStream:  deepPath,
	} {
		code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
			"doc": "doc.xml", "lang": lang, "query": text,
		})
		if code != http.StatusBadRequest || body["code"] != CodeBadRequest {
			t.Errorf("%s: status %d code %v, want 400 bad_request", lang, code, body["code"])
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, "nested deeper") {
			t.Errorf("%s: error %q does not name the nesting limit", lang, msg)
		}
	}

	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword",
	})
	if code != http.StatusOK || int(body["total"].(float64)) != 3 {
		t.Fatalf("query after the deep texts: status %d body %v", code, body)
	}
}

// TestRetryAfterInErrorBody: retryable statuses carry the back-off hint in
// the body and the header — including timeouts after gate admission, which
// previously lost the hint (only the 429 shed path set the header).
func TestRetryAfterInErrorBody(t *testing.T) {
	s := New(service.New())
	s.observeGated(5 * time.Second)
	for _, status := range []int{http.StatusTooManyRequests, http.StatusGatewayTimeout} {
		rec := httptest.NewRecorder()
		rec.Header().Set("X-Request-ID", "test-request-id-1")
		s.writeError(rec, status, errors.New("boom"))
		if got := rec.Header().Get("Retry-After"); got != "5" {
			t.Errorf("status %d: Retry-After header = %q, want 5", status, got)
		}
		if !strings.Contains(rec.Body.String(), `"retry_after_s":5`) {
			t.Errorf("status %d: body missing retry_after_s: %s", status, rec.Body.String())
		}
	}
	// Non-retryable errors carry no hint.
	rec := httptest.NewRecorder()
	s.writeError(rec, http.StatusNotFound, errors.New("gone"))
	if rec.Header().Get("Retry-After") != "" || strings.Contains(rec.Body.String(), "retry_after_s") {
		t.Errorf("404 carried a retry hint: %s", rec.Body.String())
	}
}

// TestV1RoutesAndSimilarCounters: the management routes answer under /v1
// only — the unversioned paths are gone — and /v1/statusz publishes the
// similarity counters.
func TestV1RoutesAndSimilarCounters(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(2))

	for path, want := range map[string]int{
		"/v1/healthz": http.StatusOK, "/v1/docs": http.StatusOK, "/v1/statusz": http.StatusOK, "/v1/metrics": http.StatusOK,
		"/healthz": http.StatusNotFound, "/docs": http.StatusNotFound, "/statusz": http.StatusNotFound, "/metrics": http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// Run one similarity query so the counters move, then check /v1/statusz.
	doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangSimilar, "query": "k=1 description(keyword)"})
	_, st := doJSON(t, http.MethodGet, ts.URL+"/v1/statusz", nil)
	similar, _ := st["similar"].(map[string]any)
	if similar == nil || similar["candidates"].(float64) < 1 {
		t.Errorf("statusz similar section: %v", st["similar"])
	}
	if _, ok := similar["ted_kernel_calls"]; !ok {
		t.Errorf("similar section missing ted_kernel_calls: %v", similar)
	}
}

// TestV1MetricsFamilies: the similarity and ted-pool families appear on the
// scrape and /v1/query is counted under the "query" handler label.
func TestV1MetricsFamilies(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(2))
	doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangSimilar, "query": "k=1 description(keyword)"})

	out := scrapeText(t, ts.URL)
	for _, fam := range []string{
		"treeqd_similar_candidates_total",
		"treeqd_similar_pruned_total",
		"treeqd_ted_kernel_calls_total",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("scrape missing family %s", fam)
		}
	}
	if !strings.Contains(out, `treeqd_pool_hits_total{pool="ted_dp"}`) {
		t.Error("scrape missing ted_dp pool series")
	}
	// /v1/query is counted under the "query" handler label.
	if !strings.Contains(out, `treeqd_http_requests_total{handler="query",code="200"}`) {
		t.Error("v1 request not counted under the query handler label")
	}
}

// TestV1PutTooDeep: a PUT of a document nested a million levels deep is a
// 413 too_large, refused while scanning, and leaves the corpus as it was.
func TestV1PutTooDeep(t *testing.T) {
	ts, svc := newTestServer(t, nil)
	const depth = 1_000_000
	code, body := putDoc(t, ts.URL, "deep.xml", strings.Repeat("<a>", depth)+strings.Repeat("</a>", depth))
	if code != http.StatusRequestEntityTooLarge || body["code"] != CodeTooLarge {
		t.Fatalf("PUT of a %d-deep document: status %d, body %v; want 413 too_large", depth, code, body)
	}
	if svc.Len() != 0 {
		t.Errorf("the refused document is in the corpus: %v", svc.Versions())
	}
}
