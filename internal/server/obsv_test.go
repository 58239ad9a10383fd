package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"log/slog"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/service"
)

// scrapeText fetches and returns the /v1/metrics exposition.
func scrapeText(t testing.TB, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestRequestIDOnEveryResponse(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(2))

	// Every endpoint, success or failure, carries a generated X-Request-ID.
	for _, path := range []string{"/v1/healthz", "/v1/statusz", "/v1/metrics", "/v1/docs", "/nosuch"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		id := resp.Header.Get("X-Request-ID")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if len(id) != 16 {
			t.Errorf("GET %s: X-Request-ID = %q, want 16 hex digits", path, id)
		}
	}

	// A usable client-supplied ID is echoed back verbatim.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query",
		strings.NewReader(`{"doc":"doc.xml","lang":"xpath","query":"//keyword"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "client-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-supplied-42" {
		t.Errorf("X-Request-ID = %q, want the client-supplied value", got)
	}

	// An unusable one (over-length values would bloat logs) is replaced.
	long := strings.Repeat("x", 200)
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-ID", long)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == long || len(got) != 16 {
		t.Errorf("unusable client ID not replaced: %q", got)
	}
}

// TestMetricsExposition drives every query route through a server whose
// registry is shared with the service (as treeqd wires it) and asserts the
// scrape is well-formed and covers the acceptance families with non-zero
// samples.
func TestMetricsExposition(t *testing.T) {
	reg := obsv.NewRegistry()
	ts, svc := newTestServer(t,
		[]service.Option{service.WithMetrics(reg)},
		WithRegistry(reg))
	putDoc(t, ts.URL, "a.xml", siteXML(2))
	putDoc(t, ts.URL, "b.xml", siteXML(3))
	for i := 0; i < 2; i++ {
		doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
			"doc": "a.xml", "lang": core.LangXPath, "query": "//keyword"})
	}
	doJSON(t, http.MethodPost, ts.URL+"/v1/corpus/query", map[string]any{
		"lang": core.LangXPath, "query": "//keyword"})
	if _, err := svc.UpdateDocXML("a.xml", siteXML(4)); err != nil {
		t.Fatal(err)
	}

	out := scrapeText(t, ts.URL)
	fams, err := obsv.ParseExposition(out)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, out)
	}

	// Histograms with observations: query duration (both routes), prepare
	// stages (shared registry), corpus fan-out size.
	checkCount := func(family, series string, min float64) {
		t.Helper()
		fam := fams[family]
		if fam == nil {
			t.Fatalf("family %s missing from scrape", family)
		}
		got := fam.Samples[series]
		if got < min {
			t.Errorf("%s = %v, want >= %v (family samples: %v)", series, got, min, fam.Samples)
		}
	}
	checkCount("treeqd_query_duration_seconds",
		`treeqd_query_duration_seconds_count{lang="xpath",route="query",outcome="ok"}`, 2)
	checkCount("treeqd_query_duration_seconds",
		`treeqd_query_duration_seconds_count{lang="xpath",route="corpus",outcome="ok"}`, 1)
	checkCount("treeqd_prepare_duration_seconds",
		`treeqd_prepare_duration_seconds_count{lang="xpath",phase="build"}`, 1)
	checkCount("treeqd_corpus_fanout_docs", "treeqd_corpus_fanout_docs_count", 1)

	// Counters and gauges derived from the service stats and pools.
	checkCount("treeqd_http_requests_total", `treeqd_http_requests_total{handler="query",code="200"}`, 2)
	checkCount("treeqd_plan_cache_hits_total", "treeqd_plan_cache_hits_total", 1)
	checkCount("treeqd_plan_cache_misses_total", "treeqd_plan_cache_misses_total", 1)
	checkCount("treeqd_corpus_docs", "treeqd_corpus_docs", 2)
	checkCount("treeqd_retry_after_seconds", "treeqd_retry_after_seconds", 1)
	for _, fam := range []string{"treeqd_pool_hits_total", "treeqd_pool_misses_total",
		"treeqd_uptime_seconds"} {
		if fams[fam] == nil {
			t.Errorf("family %s missing from scrape", fam)
		}
	}
	// One plan serves both documents: the corpus fan-out hit the plan the
	// single-document queries compiled.
	checkCount("treeqd_plan_cache_size", "treeqd_plan_cache_size", 1)
	if n := fams["treeqd_plan_cache_misses_total"].Samples["treeqd_plan_cache_misses_total"]; n != 1 {
		t.Errorf("plan_cache_misses_total = %v, want 1", n)
	}

	// Incremental-update families: the one update above landed in exactly one
	// of the two modes and carried the one cached plan, and the per-phase
	// histogram (shared registry, observed by the service) has samples.
	patchFam := fams["treeqd_update_patch_total"]
	if patchFam == nil {
		t.Fatal("family treeqd_update_patch_total missing from scrape")
	}
	patched := patchFam.Samples[`treeqd_update_patch_total{mode="patched"}`]
	rebuilt := patchFam.Samples[`treeqd_update_patch_total{mode="rebuilt"}`]
	if patched+rebuilt != 1 {
		t.Errorf("update_patch_total patched=%v rebuilt=%v, want exactly 1 update", patched, rebuilt)
	}
	if fams["treeqd_update_plans_skipped_total"] == nil {
		t.Error("family treeqd_update_plans_skipped_total missing from scrape")
	}
	checkCount("treeqd_update_plans_carried_total", "treeqd_update_plans_carried_total", 1)
	checkCount("treeqd_update_duration_seconds",
		`treeqd_update_duration_seconds_count{phase="swap"}`, 1)
	if v := fams["treeqd_update_duration_seconds"].Samples[`treeqd_update_duration_seconds_sum{phase="diff"}`]; v <= 0 {
		t.Errorf("diff phase accrued no time: %v", fams["treeqd_update_duration_seconds"].Samples)
	}
}

// TestMetricsScrapeRace hammers /metrics while documents update and corpus
// queries fan out.  Every scrape must parse and validate (HELP/TYPE pairs, no
// torn histograms) and the request counter must be monotone per scraper.
func TestMetricsScrapeRace(t *testing.T) {
	reg := obsv.NewRegistry()
	ts, svc := newTestServer(t,
		[]service.Option{service.WithMetrics(reg), service.WithPlanCacheSize(32)},
		WithRegistry(reg))
	for i := 0; i < 4; i++ {
		putDoc(t, ts.URL, fmt.Sprintf("d%d.xml", i), siteXML(i+1))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Updater: swap documents under the scrapers and the query load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := svc.UpdateDocXML(fmt.Sprintf("d%d.xml", i%4), siteXML(i%5+1)); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()

	// Query load: single-document and corpus fan-outs.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if w == 0 {
					doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
						"doc": "d0.xml", "lang": core.LangXPath, "query": "//keyword"})
				} else {
					doJSON(t, http.MethodPost, ts.URL+"/v1/corpus/query", map[string]any{
						"lang": core.LangXPath, "query": "//keyword"})
				}
			}
		}(w)
	}

	// Scrapers: every scrape parses, validates, and sees monotone counters.
	for sc := 0; sc < 2; sc++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := -1.0
			for i := 0; i < 25; i++ {
				out := scrapeText(t, ts.URL)
				fams, err := obsv.ParseExposition(out)
				if err != nil {
					t.Errorf("scrape %d invalid: %v", i, err)
					return
				}
				cur := fams["treeqd_requests_total"].Samples["treeqd_requests_total"]
				if cur < prev {
					t.Errorf("treeqd_requests_total went backwards: %v -> %v", prev, cur)
					return
				}
				prev = cur
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestRetryAfterClampAndGateWidth: the Retry-After EWMA survives shed cycles
// clamped to [1, 60] seconds, and the gate width fixed at New admits that
// many requests and sheds the next.
func TestRetryAfterClampAndGateWidth(t *testing.T) {
	s := New(service.New(), WithMaxInFlight(4))

	// Simulated shed cycle: pathologically slow requests drive the EWMA far
	// past the clamp; the advertised hint must stay within [1, 60].
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 64; i++ {
			s.observeGated(10 * time.Minute)
		}
		if got := s.retryAfterSeconds(); got < 1 || got > 60 {
			t.Fatalf("cycle %d: retryAfterSeconds = %d, want within [1, 60]", cycle, got)
		}
	}
	if got := s.retryAfterSeconds(); got != 60 {
		t.Fatalf("saturated EWMA: retryAfterSeconds = %d, want the 60s clamp", got)
	}

	// 4 slots acquire, the 5th sheds.
	for i := 0; i < 4; i++ {
		if !s.acquireGate() {
			t.Fatalf("acquire %d shed, want a slot", i)
		}
	}
	if s.acquireGate() {
		t.Error("5th acquire admitted past the bound")
	}

	// An unbounded gate admits without taking slots.
	u := New(service.New(), WithMaxInFlight(0))
	if !u.acquireGate() || u.gateUsed.Load() != 0 {
		t.Errorf("unbounded gate: used=%d, want admission without a slot", u.gateUsed.Load())
	}
}

// TestStatuszPoolKeys pins the pools section of /v1/statusz to the pools the
// process keeps: the bitset node vectors and the TED DP scratch.
func TestStatuszPoolKeys(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(2))
	doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword"})

	_, body := doJSON(t, http.MethodGet, ts.URL+"/v1/statusz", nil)
	pools, ok := body["pools"].(map[string]any)
	if !ok {
		t.Fatalf("statusz pools section: %v", body["pools"])
	}
	got := make([]string, 0, len(pools))
	for k := range pools {
		got = append(got, k)
	}
	slices.Sort(got)
	want := []string{"bitset_pool_hits", "bitset_pool_misses", "ted_dp_hits", "ted_dp_misses"}
	if !slices.Equal(got, want) {
		t.Errorf("statusz pools keys = %v, want %v", got, want)
	}
}

// TestStatuszIndexKeys pins the index section of /v1/statusz to the caches
// the index keeps (label lists, masks, the TED view), and checks that
// /v1/metrics exports no pair-cache family.
func TestStatuszIndexKeys(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", multiSiteXML(2))
	doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//item/name"})

	_, body := doJSON(t, http.MethodGet, ts.URL+"/v1/statusz", nil)
	ix, ok := body["index"].(map[string]any)
	if !ok {
		t.Fatalf("statusz index section: %v", body["index"])
	}
	got := make([]string, 0, len(ix))
	for k := range ix {
		got = append(got, k)
	}
	slices.Sort(got)
	want := []string{"label_list_builds", "label_list_hits", "label_mask_builds",
		"label_mask_hits", "multi_labeled_docs", "releases", "ted_builds"}
	if !slices.Equal(got, want) {
		t.Errorf("statusz index keys = %v, want %v", got, want)
	}
	if out := scrapeText(t, ts.URL); strings.Contains(out, "treeqd_pair_cache_") {
		t.Error("/v1/metrics exports a treeqd_pair_cache_ family")
	}
}

// logLines decodes every JSON line the handler wrote.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line not JSON: %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestSlowQueryLogExactlyOnePerQuery(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	// A 1ns threshold makes every query slow, so the line count must equal
	// the query count exactly — no duplicates from retries or double
	// observation, no lines from non-query endpoints.
	ts, _ := newTestServer(t, nil, WithSlowQueryLog(time.Nanosecond, logger))
	putDoc(t, ts.URL, "doc.xml", siteXML(2))

	const queries = 3
	for i := 0; i < queries; i++ {
		doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
			"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword"})
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	doJSON(t, http.MethodGet, ts.URL+"/v1/statusz", nil)

	lines := logLines(t, &buf)
	slow := 0
	for _, m := range lines {
		if m["msg"] != "slow query" {
			continue
		}
		slow++
		if m["route"] != "query" || m["lang"] != "xpath" {
			t.Errorf("slow-query line fields: %v", m)
		}
		if hash, _ := m["query_hash"].(string); hash != obsv.QueryHash("//keyword") {
			t.Errorf("query_hash = %v, want hash of the query text", m["query_hash"])
		}
		if id, _ := m["request_id"].(string); len(id) != 16 {
			t.Errorf("slow-query line missing request_id: %v", m)
		}
		if _, ok := m["stages"].(string); !ok {
			t.Errorf("slow-query line missing stage breakdown: %v", m)
		}
	}
	if slow != queries {
		t.Errorf("slow-query lines = %d, want exactly %d", slow, queries)
	}
}

func TestAccessLogJSON(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	ts, _ := newTestServer(t, nil, WithAccessLog(logger))
	putDoc(t, ts.URL, "doc.xml", siteXML(1))
	doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword"})

	var sawQuery bool
	for _, m := range logLines(t, &buf) {
		if m["msg"] != "request" {
			continue
		}
		if m["path"] == "/v1/query" {
			sawQuery = true
			if m["method"] != "POST" || m["handler"] != "query" || m["status"].(float64) != 200 {
				t.Errorf("access-log line fields: %v", m)
			}
			if id, _ := m["request_id"].(string); len(id) != 16 {
				t.Errorf("access-log line missing request_id: %v", m)
			}
		}
	}
	if !sawQuery {
		t.Errorf("no access-log line for /v1/query:\n%s", buf.String())
	}
}

func TestDebugTimingsEcho(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(2))

	resp, err := http.Post(ts.URL+"/v1/query?debug=timings", "application/json",
		strings.NewReader(`{"doc":"doc.xml","lang":"xpath","query":"//keyword"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	timings, ok := body["timings"].(map[string]any)
	if !ok {
		t.Fatalf("response has no timings: %v", body)
	}
	if timings["request_id"] != resp.Header.Get("X-Request-ID") {
		t.Errorf("timings request_id %v != header %q", timings["request_id"], resp.Header.Get("X-Request-ID"))
	}
	stages, _ := timings["stages"].([]any)
	names := map[string]bool{}
	for _, st := range stages {
		m := st.(map[string]any)
		names[m["stage"].(string)] = true
		if m["ns"].(float64) < 0 {
			t.Errorf("negative stage duration: %v", m)
		}
	}
	for _, want := range []string{"gate", "plan", "exec"} {
		if !names[want] {
			t.Errorf("timings missing stage %q: %v", want, stages)
		}
	}

	// Without the flag the field is absent.
	_, plain := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "doc.xml", "lang": core.LangXPath, "query": "//keyword"})
	if _, ok := plain["timings"]; ok {
		t.Error("timings echoed without ?debug=timings")
	}
}

// TestCorpusFailedCarriesRequestID: per-document failures in a corpus
// fan-out are stamped with the request ID so client and server logs join.
func TestCorpusFailedCarriesRequestID(t *testing.T) {
	// The naive backtracking search tries every (item, keyword) pair: on
	// 1000 items that is 10^6 candidates, tens of milliseconds of work, so
	// the 1ms per-document budget expires mid-search whatever the planner's
	// routes cost.
	ts, _ := newTestServer(t, []service.Option{service.WithEngineOptions(core.WithStrategy(core.Naive))})
	putDoc(t, ts.URL, "doc.xml", siteXML(1000))

	var body map[string]any
	for i := 0; i < 100; i++ {
		_, body = doJSON(t, http.MethodPost, ts.URL+"/v1/corpus/query", map[string]any{
			"lang": core.LangCQ, "query": "Q(x,y) :- Lab[item](x), Child+(x, y), Lab[keyword](y).",
			"doc_timeout_ms": 1})
		if body["failed"] != nil {
			break
		}
	}
	failed, _ := body["failed"].([]any)
	if len(failed) == 0 {
		t.Fatal("a 1ms per-document budget never expired during a naive search over 1000 items")
	}
	msg := failed[0].(map[string]any)["error"].(string)
	if !strings.Contains(msg, "request_id=") {
		t.Errorf("failed error not stamped with request_id: %q", msg)
	}
	if !strings.Contains(msg, "deadline") {
		t.Errorf("deadline cause no longer visible in error: %q", msg)
	}
}
