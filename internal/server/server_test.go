package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// siteXML builds a small deterministic document with n keyword leaves.
func siteXML(n int) string {
	var b strings.Builder
	b.WriteString("<site><region>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<item><name>n%d</name><description><keyword>k%d</keyword></description></item>", i, i)
	}
	b.WriteString("</region></site>")
	return b.String()
}

// multiSiteXML is siteXML with attributes, so every item is multi-labeled
// (element label plus "@id=..." labels).
func multiSiteXML(n int) string {
	var b strings.Builder
	b.WriteString(`<site><region name="africa">`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<item id="i%d"><name>n%d</name><description><keyword>k%d</keyword></description></item>`, i, i, i)
	}
	b.WriteString("</region></site>")
	return b.String()
}

func newTestServer(t testing.TB, svcOpts []service.Option, srvOpts ...Option) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(svcOpts...)
	ts := httptest.NewServer(New(svc, srvOpts...))
	t.Cleanup(ts.Close)
	return ts, svc
}

func doJSON(t testing.TB, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: bad JSON: %v", method, url, err)
	}
	return resp.StatusCode, out
}

func putDoc(t testing.TB, base, name, xml string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/docs/"+name, strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("PUT %s: bad JSON: %v", name, err)
	}
	return resp.StatusCode, out
}

// total reads the envelope's total: every match, before any limit cut.
func total(body map[string]any) int {
	n, _ := body["total"].(float64)
	return int(n)
}

func TestDocumentLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, nil)

	code, body := putDoc(t, ts.URL, "a.xml", siteXML(3))
	if code != http.StatusCreated {
		t.Fatalf("add: status %d", code)
	}
	if v, _ := body["version"].(float64); v != 1 {
		t.Errorf("add: version = %v, want 1", body["version"])
	}
	// PUT on a live name is an update, not a conflict: same document slot,
	// bumped version.
	code, body = putDoc(t, ts.URL, "a.xml", siteXML(3))
	if code != http.StatusOK {
		t.Errorf("update: status %d, want 200", code)
	}
	if v, _ := body["version"].(float64); v != 2 {
		t.Errorf("update: version = %v, want 2", body["version"])
	}
	if code, _ := putDoc(t, ts.URL, "bad.xml", "<open>"); code != http.StatusBadRequest {
		t.Errorf("malformed XML: status %d, want 400", code)
	}

	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/docs", nil)
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	docs, _ := body["docs"].([]any)
	if len(docs) != 1 || docs[0] != "a.xml" {
		t.Errorf("list = %v, want [a.xml]", docs)
	}

	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/docs/a.xml", nil); code != http.StatusOK {
		t.Errorf("remove: status %d", code)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/docs/a.xml", nil); code != http.StatusNotFound {
		t.Errorf("double remove: status %d, want 404", code)
	}
}

// TestListDocsUnderChurn: GET /v1/docs reads the corpus once, so on every
// reply count is the length of docs and the versions' keys are docs, while
// PUTs and DELETEs of one name run beside it.
func TestListDocsUnderChurn(t *testing.T) {
	svc := service.New()
	for _, name := range []string{"a.xml", "b.xml"} {
		if err := svc.AddXML(name, siteXML(1)); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(svc)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req := httptest.NewRequest(http.MethodDelete, "/v1/docs/churn.xml", nil)
			if i%2 == 0 {
				req = httptest.NewRequest(http.MethodPut, "/v1/docs/churn.xml", strings.NewReader("<a><b/></a>"))
			}
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if w.Code != http.StatusCreated && w.Code != http.StatusOK {
				t.Errorf("%s churn.xml: status %d", req.Method, w.Code)
				return
			}
		}
	}()
	for range 2000 {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/docs", nil))
		var body struct {
			Docs     []string          `json:"docs"`
			Count    int               `json:"count"`
			Versions map[string]uint64 `json:"versions"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for name := range body.Versions {
			keys = append(keys, name)
		}
		slices.Sort(keys)
		if body.Count != len(body.Docs) || !slices.Equal(keys, body.Docs) {
			t.Errorf("one reply disagrees with itself: docs %v, count %d, versions %v", body.Docs, body.Count, body.Versions)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestQueryEveryLanguage exercises POST /v1/query across all five languages
// and checks the envelope's result shapes.
func TestQueryEveryLanguage(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(4))

	const datalog = `P0(x) :- Lab[keyword](x).
P0(x) :- NextSibling(x, y), P0(y).
P(x)  :- FirstChild(x, y), P0(y).
P0(x) :- P(x).
?- P.`

	cases := []struct {
		lang, query string
		answers     bool // cq/twig return answer tuples, the rest node lists
		count       int
	}{
		{core.LangXPath, "//item//keyword", false, 4},
		{core.LangStream, "//item//keyword", false, 4},
		{core.LangCQ, "Q(k) :- Lab[keyword](k).", true, 4},
		{core.LangTwig, "//item[name]", true, 4},
		// P(x) holds for every node with a keyword-bearing child subtree:
		// 4 items + 4 descriptions + region + site.
		{core.LangDatalog, datalog, false, 10},
	}
	for _, tc := range cases {
		code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
			"doc": "doc.xml", "lang": tc.lang, "query": tc.query, "plan": true,
		})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", tc.lang, code, body)
		}
		results, _ := body["results"].([]any)
		if got := total(body); got != tc.count || len(results) != tc.count {
			t.Errorf("%s: total = %d with %d results, want %d", tc.lang, got, len(results), tc.count)
		}
		if tc.answers && tc.count > 0 && results[0].(map[string]any)["answer"] == nil {
			t.Errorf("%s: expected answer tuples, got %v", tc.lang, results)
		}
		if plan, _ := body["plan"].(map[string]any); plan == nil || plan["technique"] == "" {
			t.Errorf("%s: missing plan: %v", tc.lang, body["plan"])
		}
	}

	// Error mapping: unknown document and broken query text.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "nope.xml", "lang": core.LangXPath, "query": "//a"}); code != http.StatusNotFound {
		t.Errorf("unknown doc: status %d, want 404", code)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//["}); code != http.StatusBadRequest {
		t.Errorf("broken query: status %d, want 400", code)
	}
}

// TestCorpusQueryAggregation checks the merged corpus response: stable
// (document name, node id) ordering, totals, and limit truncation.
func TestCorpusQueryAggregation(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	// Added out of name order on purpose: the aggregate must still be sorted.
	putDoc(t, ts.URL, "c.xml", siteXML(2))
	putDoc(t, ts.URL, "a.xml", siteXML(3))
	putDoc(t, ts.URL, "b.xml", siteXML(1))

	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/corpus/query", map[string]any{
		"lang": core.LangXPath, "query": "//keyword",
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if got := total(body); got != 6 {
		t.Errorf("total = %d, want 6", got)
	}
	if body["truncated"].(bool) {
		t.Error("unlimited query reported truncation")
	}
	nodes, _ := body["results"].([]any)
	if len(nodes) != 6 {
		t.Fatalf("got %d nodes, want 6", len(nodes))
	}
	type key struct {
		doc  string
		node float64
	}
	var keys []key
	for _, n := range nodes {
		m := n.(map[string]any)
		keys = append(keys, key{m["doc"].(string), m["node"].(float64)})
	}
	sorted := sort.SliceIsSorted(keys, func(i, j int) bool {
		if keys[i].doc != keys[j].doc {
			return keys[i].doc < keys[j].doc
		}
		return keys[i].node < keys[j].node
	})
	if !sorted {
		t.Errorf("nodes not in (doc, node) order: %v", keys)
	}
	if keys[0].doc != "a.xml" || keys[len(keys)-1].doc != "c.xml" {
		t.Errorf("doc order wrong: first %s last %s", keys[0].doc, keys[len(keys)-1].doc)
	}

	// A limit truncates but keeps reporting the full total.
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/corpus/query", map[string]any{
		"lang": core.LangXPath, "query": "//keyword", "limit": 2,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	nodes, _ = body["results"].([]any)
	if len(nodes) != 2 || !body["truncated"].(bool) || total(body) != 6 {
		t.Errorf("limit=2: nodes=%d truncated=%v total=%v", len(nodes), body["truncated"], body["total"])
	}
}

// TestCorpusQueryDeadlinePartialFailure runs a corpus fan-out under a 1ms
// request deadline over documents whose execution far exceeds it: an
// unbounded similarity search (k=0, no maxdist) prunes nothing, so it runs
// the edit-distance kernel on all 8,002 subtrees of a document — tens of
// deadlines on one worker, where a cold datalog prepare is now a fraction of
// one.  The response must stay 200 with per-document failures
// (partial-failure semantics), and every document must be accounted for
// either way.
func TestCorpusQueryDeadlinePartialFailure(t *testing.T) {
	ts, _ := newTestServer(t, []service.Option{service.WithWorkers(1)})
	for i := 0; i < 6; i++ {
		putDoc(t, ts.URL, fmt.Sprintf("doc%d.xml", i), siteXML(2000))
	}
	similar := "k=0 site(region(" + strings.Repeat("item(name description(keyword)) ", 8) + "))"
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/corpus/query", map[string]any{
		"lang": core.LangSimilar, "query": similar, "timeout_ms": 1,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	failed, _ := body["failed"].([]any)
	if len(failed) == 0 {
		t.Fatal("1ms deadline over unbounded similarity searches reported no failures")
	}
	if int(body["docs"].(float64)) != 6 {
		t.Errorf("docs = %v, want 6", body["docs"])
	}
	if len(failed) > 6 {
		t.Errorf("%d failures from 6 docs", len(failed))
	}
}

// TestPreparedLifecycle registers, lists, executes, and deletes a prepared
// query, and checks that removing the backing document drops it.
func TestPreparedLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(3))

	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/prepared", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword",
	})
	if code != http.StatusCreated {
		t.Fatalf("register: status %d (%v)", code, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("no id in %v", body)
	}

	for i := 0; i < 3; i++ {
		code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/prepared/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("exec %d: status %d (%v)", i, code, body)
		}
		if total(body) != 3 {
			t.Errorf("exec %d: total %v, want 3", i, body["total"])
		}
	}

	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/prepared", nil)
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	rows, _ := body["prepared"].([]any)
	if len(rows) != 1 {
		t.Fatalf("list rows = %d, want 1", len(rows))
	}
	if execs := rows[0].(map[string]any)["execs"].(float64); execs != 3 {
		t.Errorf("execs = %v, want 3", execs)
	}

	// Removing the document invalidates its prepared queries.
	doJSON(t, http.MethodDelete, ts.URL+"/v1/docs/doc.xml", nil)
	if code, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/prepared/"+id, nil); code != http.StatusNotFound {
		t.Errorf("exec after doc removal: status %d, want 404", code)
	}
	if code, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/prepared/"+id, nil); code != http.StatusNotFound {
		t.Errorf("delete after doc removal: status %d, want 404", code)
	}
}

// TestBackpressure429 saturates a 1-slot admission gate with a request whose
// body never finishes uploading, then checks that the next request is shed
// with 429 + Retry-After instead of queueing behind it.
func TestBackpressure429(t *testing.T) {
	ts, _ := newTestServer(t, nil, WithMaxInFlight(1))

	// Occupy the only slot: PUT /v1/docs is gated and blocks reading the body.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/docs/slow.xml", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1 // chunked: the handler reads until the pipe closes
	done := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("blocked request: %v", err)
			done <- nil
			return
		}
		done <- resp
	}()
	if _, err := pw.Write([]byte("<site>")); err != nil { // handler is now inside the gate
		t.Fatal(err)
	}

	// The gate is full: a second gated request must shed immediately.
	var saw429 bool
	for i := 0; i < 50; i++ {
		resp, err := http.Post(ts.URL+"/v1/corpus/query", "application/json",
			strings.NewReader(`{"lang":"xpath","query":"//a"}`))
		if err != nil {
			t.Fatal(err)
		}
		retry := resp.Header.Get("Retry-After")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			if retry == "" {
				t.Error("429 without Retry-After")
			}
			break
		}
		// The blocked request may not have entered the gate yet; retry.
		time.Sleep(10 * time.Millisecond)
	}
	if !saw429 {
		t.Error("saturated gate never returned 429")
	}

	// Release the slot; the server must accept work again.
	pw.Write([]byte("</site>"))
	pw.Close()
	if resp := <-done; resp != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Errorf("unblocked upload: status %d", resp.StatusCode)
		}
	}
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "slow.xml", "lang": core.LangXPath, "query": "//site"})
	if code != http.StatusOK {
		t.Errorf("after release: status %d (%v)", code, body)
	}

	_, st := doJSON(t, http.MethodGet, ts.URL+"/v1/statusz", nil)
	srv := st["server"].(map[string]any)
	if srv["rejected_429"].(float64) < 1 {
		t.Errorf("statusz rejected_429 = %v, want >= 1", srv["rejected_429"])
	}
}

func TestStatusz(t *testing.T) {
	ts, _ := newTestServer(t, []service.Option{service.WithPlanCacheSize(8)})
	putDoc(t, ts.URL, "doc.xml", siteXML(2))
	doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword"})
	doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword"})

	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/statusz", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	svc := body["service"].(map[string]any)
	if svc["docs"].(float64) != 1 || svc["queries"].(float64) != 2 {
		t.Errorf("service counters: %v", svc)
	}
	if svc["plan_cache_hits"].(float64) != 1 || svc["plan_cache_misses"].(float64) != 1 {
		t.Errorf("plan cache counters: %v", svc)
	}
	if body["server"].(map[string]any)["requests"].(float64) < 3 {
		t.Errorf("request counter: %v", body["server"])
	}

	// A multi-labeled document queried with a label-to-label step must show
	// up in the aggregated index counters — as label masks built and then
	// hit.  The index keeps no XASR, side relation or pair relation, and
	// statusz reports none.
	putDoc(t, ts.URL, "multi.xml", multiSiteXML(3))
	for i := 0; i < 2; i++ {
		code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
			"doc": "multi.xml", "lang": core.LangXPath, "query": "//item/name"})
		if code != http.StatusOK || total(body) != 3 {
			t.Errorf("//item/name on the multi-labeled doc: status %d, %v; want 3 nodes", code, body)
		}
	}
	_, body = doJSON(t, http.MethodGet, ts.URL+"/v1/statusz", nil)
	ix := body["index"].(map[string]any)
	if ix["multi_labeled_docs"].(float64) != 1 {
		t.Errorf("multi_labeled_docs = %v, want 1 (index section: %v)", ix["multi_labeled_docs"], ix)
	}
	if ix["label_mask_builds"].(float64) < 1 || ix["label_mask_hits"].(float64) < 1 {
		t.Errorf("multi-labeled doc should build and hit label masks: %v", ix)
	}
	for _, k := range []string{"xasr_builds", "label_row_builds", "pair_builds"} {
		if v, ok := ix[k]; ok {
			t.Errorf("statusz index reports %s = %v; the index keeps no such cache", k, v)
		}
	}
	if body["server"].(map[string]any)["retry_after_s"].(float64) < 1 {
		t.Errorf("retry_after_s missing from statusz: %v", body["server"])
	}
}

// TestRetryAfterDerived: the 429 hint follows the gate's observed request
// durations instead of a hard-coded 1s — the EWMA of completed gated
// requests drives it, rounded up to whole seconds.
func TestRetryAfterDerived(t *testing.T) {
	svc := service.New()
	s := New(svc, WithMaxInFlight(1))
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("no samples: retryAfterSeconds = %d, want the 1s floor", got)
	}
	// Sustained slow requests push the hint up to the average duration...
	for i := 0; i < 64; i++ {
		s.observeGated(2500 * time.Millisecond)
	}
	if got := s.retryAfterSeconds(); got != 3 {
		t.Errorf("after 2.5s requests: retryAfterSeconds = %d, want 3 (ceil of EWMA)", got)
	}
	// ...fast ones pull it back down to the floor...
	for i := 0; i < 64; i++ {
		s.observeGated(5 * time.Millisecond)
	}
	if got := s.retryAfterSeconds(); got != 1 {
		t.Errorf("after fast requests: retryAfterSeconds = %d, want 1", got)
	}
	// ...and the derived value is clamped so a pathological EWMA cannot tell
	// clients to go away for minutes.
	for i := 0; i < 64; i++ {
		s.observeGated(10 * time.Minute)
	}
	if got := s.retryAfterSeconds(); got != 60 {
		t.Errorf("clamp: retryAfterSeconds = %d, want 60", got)
	}

	// A server whose requests take 6.5s each hints 7s.
	seeded := New(svc, WithMaxInFlight(1))
	seeded.observeGated(6500 * time.Millisecond)
	if got := seeded.retryAfterSeconds(); got != 7 {
		t.Errorf("seeded: retryAfterSeconds = %d, want 7", got)
	}
}

// TestRetryAfterHeader checks the wire behavior: a shed request carries the
// Retry-After value the gate's observed request durations derive.
func TestRetryAfterHeader(t *testing.T) {
	s := New(service.New(), WithMaxInFlight(1))
	s.observeGated(5 * time.Second)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/docs/slow.xml", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write([]byte("<site>")); err != nil {
		t.Fatal(err)
	}
	defer func() {
		pw.Write([]byte("</site>"))
		pw.Close()
		<-done
	}()

	for i := 0; i < 50; i++ {
		resp, err := http.Post(ts.URL+"/v1/corpus/query", "application/json",
			strings.NewReader(`{"lang":"xpath","query":"//a"}`))
		if err != nil {
			t.Fatal(err)
		}
		retry := resp.Header.Get("Retry-After")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if retry != "5" {
				t.Errorf("Retry-After = %q, want %q", retry, "5")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("saturated gate never returned 429")
}

// TestServerConcurrency hammers the handler from many goroutines: parallel
// adds/removes, single-document queries, corpus fan-outs, and 1ms-deadline
// corpus queries that cancel mid-flight.  Run under -race this is the
// transport layer's concurrency contract test.
func TestServerConcurrency(t *testing.T) {
	ts, _ := newTestServer(t,
		[]service.Option{service.WithWorkers(2), service.WithPlanCacheSize(32)},
		WithMaxInFlight(0), // no shedding: this test wants every request executed
	)
	for i := 0; i < 4; i++ {
		if code, _ := putDoc(t, ts.URL, fmt.Sprintf("base%d.xml", i), siteXML(20)); code != http.StatusCreated {
			t.Fatal("seed corpus add failed")
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				switch (g + i) % 4 {
				case 0:
					name := fmt.Sprintf("tmp-%d-%d.xml", g, i)
					if code, _ := putDoc(t, ts.URL, name, siteXML(5)); code != http.StatusCreated {
						t.Errorf("add %s: %d", name, code)
					}
					doJSON(t, http.MethodDelete, ts.URL+"/v1/docs/"+name, nil)
				case 1:
					doc := fmt.Sprintf("base%d.xml", i%4)
					code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
						"doc": doc, "lang": core.LangXPath, "query": "//keyword"})
					if code != http.StatusOK {
						t.Errorf("query %s: %d", doc, code)
					}
				case 2:
					code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/corpus/query", map[string]any{
						"lang": core.LangXPath, "query": "//item//keyword", "limit": 10})
					if code != http.StatusOK {
						t.Errorf("corpus query: %d", code)
					}
				case 3:
					// Deadline chaos: 1ms budgets cancel fan-outs mid-flight;
					// the response must still be well-formed JSON with every
					// document accounted as a result or a failure.
					code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/corpus/query", map[string]any{
						"lang": core.LangCQ, "query": "Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k).",
						"timeout_ms": 1, "doc_timeout_ms": 1})
					if code != http.StatusOK {
						t.Errorf("deadline corpus query: %d (%v)", code, body)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/docs", nil)
	if code != http.StatusOK || int(body["count"].(float64)) != 4 {
		t.Errorf("corpus should end at 4 docs: %v", body)
	}
}

// TestPutDocBody covers how a PUT's body reaches the parser: a mixed-content
// document is stored (it used to panic the parse and drop the connection), an
// upload without a declared length is read whole, and the body limit answers
// 413 whether or not the client declared the oversized length.
func TestPutDocBody(t *testing.T) {
	svc := service.New()
	srv := New(svc)
	srv.maxBody = 256
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	if code, body := putDoc(t, ts.URL, "mixed.xml", `<a>x<b/>z</a>`); code != http.StatusCreated {
		t.Fatalf("mixed content: status %d (%v), want 201", code, body)
	}
	eng, err := svc.Engine("mixed.xml")
	if err != nil {
		t.Fatal(err)
	}
	if doc := eng.Document(); doc.Len() != 2 || doc.Text(doc.Root()) != "xz" {
		t.Errorf("mixed content stored as %d nodes with root text %q, want 2 and \"xz\"", doc.Len(), doc.Text(doc.Root()))
	}

	put := func(name string, body io.Reader) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/docs/"+name, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// io.MultiReader hides the length, so the client sends a chunked body.
	if code := put("chunked.xml", io.MultiReader(strings.NewReader(siteXML(2)))); code != http.StatusCreated {
		t.Errorf("chunked upload: status %d, want 201", code)
	}
	big := siteXML(20)
	if code := put("big.xml", strings.NewReader(big)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared %d-byte upload: status %d, want 413", len(big), code)
	}
	if code := put("big.xml", io.MultiReader(strings.NewReader(big))); code != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked %d-byte upload: status %d, want 413", len(big), code)
	}
}

// TestPutDocReservesWhatArrives: a PUT that declares the largest length the
// body limit allows but sends four bytes costs the server what arrives, not
// what was declared: four such requests allocate far less than one declared
// body.
func TestPutDocReservesWhatArrives(t *testing.T) {
	svc := service.New()
	srv := New(svc)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range 4 {
		req := httptest.NewRequest(http.MethodPut, fmt.Sprintf("/v1/docs/x%d", i), strings.NewReader("<a/>"))
		req.ContentLength = DefaultMaxBodyBytes
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			t.Fatalf("PUT %d: status %d (%s), want 201", i, rec.Code, rec.Body)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("four 4-byte PUTs declaring %d bytes each allocated %d bytes, want at most %d", DefaultMaxBodyBytes, got, 8<<20)
	}
}

// TestPutReplyMatchesEncodingJSON: the PUT reply, appended by hand, is byte
// for byte what encoding/json writes for the map {doc, docs, version} with
// HTML escaping off — for a created and an updated document, and for names
// that need escaping: quotes, backslashes, control bytes, HTML characters,
// U+2028 and bytes that are not UTF-8.
func TestPutReplyMatchesEncodingJSON(t *testing.T) {
	svc := service.New()
	srv := New(svc)
	for i, name := range []string{"doc.xml", `q"uote`, `back\slash`, "<b>&amp;</b>", "tab\tnl\ncr\r", "line\u2028sep", "bad\xff\xfeutf8", "ümlaut €"} {
		for version := uint64(1); version <= 2; version++ {
			req := httptest.NewRequest(http.MethodPut, "/v1/docs/"+url.PathEscape(name), strings.NewReader(siteXML(i+1)))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
				t.Fatalf("PUT %q: status %d (%s)", name, rec.Code, rec.Body)
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(map[string]any{"doc": name, "version": version, "docs": svc.Len()}); err != nil {
				t.Fatal(err)
			}
			if got := rec.Body.String(); got != want.String() {
				t.Errorf("PUT %q (version %d) replied %q, encoding/json writes %q", name, version, got, want.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("PUT %q: Content-Type %q", name, ct)
			}
		}
	}
}

// TestUpdateDocumentOverHTTP drives the live-update path end to end: PUT on
// a live name swaps the document under a bumped version, compiling nothing —
// the service's cached plan and the server's registered prepared query both
// answer over the new revision as they are — and the version shows up in
// every response that names the doc.
func TestUpdateDocumentOverHTTP(t *testing.T) {
	ts, svc := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(3))

	// Warm the plan cache and register a prepared query.
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword",
	})
	if code != http.StatusOK {
		t.Fatalf("warmup query: status %d (%v)", code, body)
	}
	if v := body["results"].([]any)[0].(map[string]any)["doc_version"].(float64); v != 1 {
		t.Errorf("query doc_version = %v, want 1", v)
	}
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/prepared", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword",
	})
	if code != http.StatusCreated {
		t.Fatalf("register: status %d (%v)", code, body)
	}
	id := body["id"].(string)

	// Update: 7 keywords now.
	before := svc.Stats()
	code, body = putDoc(t, ts.URL, "doc.xml", siteXML(7))
	if code != http.StatusOK {
		t.Fatalf("update: status %d (%v)", code, body)
	}
	if v := body["version"].(float64); v != 2 {
		t.Errorf("update version = %v, want 2", v)
	}

	// The registered prepared query answers over the new document at once.
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/prepared/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("exec after swap: status %d (%v)", code, body)
	}
	if total(body) != 7 {
		t.Errorf("prepared exec after swap: total %v, want 7 (new document)", body["total"])
	}
	if v := body["results"].([]any)[0].(map[string]any)["doc_version"].(float64); v != 2 {
		t.Errorf("prepared exec doc_version = %v, want 2", v)
	}

	// The cached service plan survived the swap: the next query hits it.
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword",
	})
	if code != http.StatusOK {
		t.Fatalf("post-swap query: status %d (%v)", code, body)
	}
	if total(body) != 7 {
		t.Errorf("post-swap query total = %v, want 7", body["total"])
	}
	after := svc.Stats()
	if after.PlanCacheMisses != before.PlanCacheMisses {
		t.Errorf("the update or the post-swap query compiled: misses %d -> %d", before.PlanCacheMisses, after.PlanCacheMisses)
	}

	// Version accounting is visible in /v1/docs and /v1/statusz.
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/docs", nil)
	if code != http.StatusOK {
		t.Fatalf("/v1/docs: status %d", code)
	}
	versions := body["versions"].(map[string]any)
	if v := versions["doc.xml"].(float64); v != 2 {
		t.Errorf("/v1/docs versions = %v, want doc.xml:2", versions)
	}
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/statusz", nil)
	if code != http.StatusOK {
		t.Fatalf("/v1/statusz: status %d", code)
	}
	svcStats := body["service"].(map[string]any)
	if u := svcStats["updates"].(float64); u != 1 {
		t.Errorf("/v1/statusz updates = %v, want 1", u)
	}
	if v := svcStats["doc_versions"].(map[string]any)["doc.xml"].(float64); v != 2 {
		t.Errorf("/v1/statusz doc_versions = %v, want doc.xml:2", svcStats["doc_versions"])
	}
	// The incremental-update section: the one swap above is accounted in
	// exactly one of the two modes, carried the one cached plan, and its
	// phases accrued wall time.
	upd := body["updates"].(map[string]any)
	if n := upd["patched"].(float64) + upd["rebuilt"].(float64); n != 1 {
		t.Errorf("/v1/statusz updates section = %v, want patched+rebuilt == 1", upd)
	}
	if n := upd["plans_carried"].(float64); n != 1 {
		t.Errorf("/v1/statusz plans_carried = %v, want 1", n)
	}
	if _, ok := upd["plans_skipped_by_label_set"]; !ok {
		t.Errorf("/v1/statusz updates section missing plans_skipped_by_label_set: %v", upd)
	}
	phases := upd["phase_totals_ns"].(map[string]any)
	if phases["diff"].(float64) <= 0 || phases["swap"].(float64) <= 0 {
		t.Errorf("/v1/statusz update phase totals did not accrue: %v", phases)
	}
	if _, ok := phases["reprepare"]; ok {
		t.Errorf("/v1/statusz still reports a reprepare phase: %v", phases)
	}
}
