package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/index"
	"repro/internal/service"
	"repro/internal/tree"
)

const keywordCQ = "Q(k) :- Lab[keyword](k)."

// strategyServer serves two small documents whose CQs all run eval.
func strategyServer(t *testing.T, eval func(ctx context.Context, q *cq.Query, doc *tree.Tree, idx *index.Index) ([]cq.Answer, error)) (*Server, *httptest.Server) {
	t.Helper()
	svc := service.New(service.WithWorkers(2),
		service.WithEngineOptions(core.WithStrategy(core.ForceCQ("test", "test", eval))))
	for _, name := range []string{"a.xml", "b.xml"} {
		if err := svc.AddXML(name, siteXML(2)); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(svc)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// waitForDone blocks an evaluator until its context ends, as a long
// evaluation would: the request context must arm Done for it.
func waitForDone(ctx context.Context, _ *cq.Query, _ *tree.Tree, _ *index.Index) ([]cq.Answer, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("the context never ended")
	}
}

// TestRequestDeadlineAndDisconnect: a query's deadline surfaces as 504
// timeout and a client gone mid-query as 499 canceled, through the one
// request context, whether the evaluator polls Err or waits on Done.
func TestRequestDeadlineAndDisconnect(t *testing.T) {
	srv, ts := strategyServer(t, waitForDone)
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "a.xml", "lang": core.LangCQ, "query": keywordCQ, "timeout_ms": 20,
	})
	if code != http.StatusGatewayTimeout || body["code"] != CodeTimeout {
		t.Fatalf("20 ms deadline: status %d body %v, want 504 timeout", code, body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(`{"doc":"a.xml","lang":"cq","query":"`+keywordCQ+`"}`)).WithContext(ctx)
	time.AfterFunc(20*time.Millisecond, cancel)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 499 || !strings.Contains(rec.Body.String(), `"code":"canceled"`) {
		t.Fatalf("disconnect: status %d body %s, want 499 canceled", rec.Code, rec.Body)
	}

	// A polled deadline (no Done) also ends the request: XPath checks Err.
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "a.xml", "lang": core.LangXPath, "query": "//keyword", "timeout_ms": 1000,
	})
	if code != http.StatusOK {
		t.Fatalf("xpath after the timeouts: status %d body %v", code, body)
	}
}

// TestHandlerPanicAnswersInternal: an evaluator that panics on a
// single-document route answers the internal error envelope with its
// request ID instead of dropping the connection; on the corpus route it fails
// each document; treeqd_panics_recovered_total counts both.
func TestHandlerPanicAnswersInternal(t *testing.T) {
	_, ts := strategyServer(t, func(context.Context, *cq.Query, *tree.Tree, *index.Index) ([]cq.Answer, error) {
		panic("evaluator bug")
	})
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "a.xml", "lang": core.LangCQ, "query": keywordCQ,
	})
	if id, _ := body["request_id"].(string); code != http.StatusInternalServerError || body["code"] != CodeInternal || len(id) != 16 {
		t.Fatalf("panicking query: status %d body %v, want 500 internal with a request_id", code, body)
	}
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/corpus/query", map[string]any{
		"lang": core.LangCQ, "query": keywordCQ,
	})
	if failed, _ := body["failed"].([]any); code != http.StatusOK || len(failed) != 2 {
		t.Fatalf("panicking corpus query: status %d body %v, want both documents failed", code, body)
	}
	// The daemon keeps serving.
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
		"doc": "a.xml", "lang": core.LangXPath, "query": "//keyword",
	})
	if code != http.StatusOK {
		t.Fatalf("xpath after the panics: status %d body %v", code, body)
	}
	text := scrapeText(t, ts.URL)
	for _, want := range []string{
		`treeqd_panics_recovered_total{scope="request"} 1`,
		`treeqd_panics_recovered_total{scope="document"} 2`,
		`treeqd_http_requests_total{handler="query",code="500"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("metrics lack %q", want)
		}
	}
}

// TestQueryLangLabelClosed: languages the service does not know share the
// one "other" series of treeqd_query_duration_seconds, so a client cannot
// mint series by sending new language names.
func TestQueryLangLabelClosed(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	putDoc(t, ts.URL, "doc.xml", siteXML(2))
	for i := 0; i < 50; i++ {
		code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
			"doc": "doc.xml", "lang": fmt.Sprintf("junk%02d", i), "query": "//a",
		})
		if code != http.StatusBadRequest {
			t.Fatalf("junk language %d: status %d, want 400", i, code)
		}
	}
	doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{"doc": "doc.xml", "lang": core.LangXPath, "query": "//a"})
	text := scrapeText(t, ts.URL)
	if strings.Contains(text, "junk") {
		t.Error("a junk language reached the exposition")
	}
	for _, want := range []string{
		`treeqd_query_duration_seconds_count{lang="other",route="query",outcome="error"} 50`,
		`treeqd_query_duration_seconds_count{lang="xpath",route="query",outcome="ok"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("metrics lack %q", want)
		}
	}
	if n := strings.Count(text, "treeqd_query_duration_seconds_count{"); n != 2 {
		t.Errorf("%d query-duration series, want 2", n)
	}
}
