package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

// FuzzV1QueryBody sends arbitrary bodies to POST /v1/query (corpus false)
// and POST /v1/corpus/query (corpus true) over a two-document corpus, one
// document multi-labeled, under a short default and maximum timeout.  The
// handler must not panic, must answer within seconds (a hang would otherwise
// stall the fuzzer without a report), must answer no 5xx but a 504, and every
// 200 must carry valid JSON.  The seeds are the request bodies of the server
// tests.
func FuzzV1QueryBody(f *testing.F) {
	seeds := []string{
		`{"doc":"doc.xml","lang":"xpath","query":"//keyword"}`,
		`{"doc":"doc.xml","lang":"xpath","query":"//item//keyword","plan":true,"limit":2}`,
		`{"doc":"doc.xml","lang":"stream","query":"//item//keyword"}`,
		`{"doc":"doc.xml","lang":"cq","query":"Q(k) :- Lab[keyword](k)."}`,
		`{"doc":"multi.xml","lang":"cq","query":"Q(k) :- Lab[item](i), Lab[@id=i0](i), Child+(i, k), Lab[keyword](k)."}`,
		`{"doc":"doc.xml","lang":"twig","query":"//item[name]"}`,
		`{"doc":"doc.xml","lang":"datalog","query":"P0(x) :- Lab[keyword](x).\nP0(x) :- NextSibling(x, y), P0(y).\nP(x)  :- FirstChild(x, y), P0(y).\nP0(x) :- P(x).\n?- P."}`,
		`{"doc":"doc.xml","lang":"similar","query":"k=3 description(keyword)"}`,
		`{"doc":"nope.xml","lang":"xpath","query":"//a"}`,
		`{"doc":"doc.xml","lang":"xpath","query":"//["}`,
		`{"doc":"doc.xml","lang":"xpath","query":"//keyword","limit":-1}`,
		`{"doc":"doc.xml","lang":"xpath","query":"//keyword","timeout_ms":-5}`,
		`{"lang":"xpath","query":"//keyword"}`,
		`{"lang":"xpath","query":"//keyword","limit":2}`,
		`{"lang":"similar","query":"k=5 description(keyword)","limit":5}`,
		`{"lang":"xpath","query":"//a","bogus":1}`,
		`{"lang":"xpath","query":"//keyword","timeout_ms":1,"doc_timeout_ms":1}`,
		`{"lang":"xpath","query":"//keyword","doc_timeout_ms":-1}`,
		`{}`,
		``,
	}
	for _, s := range seeds {
		f.Add(false, []byte(s))
		f.Add(true, []byte(s))
	}
	svc := service.New()
	if err := svc.AddXML("doc.xml", siteXML(3)); err != nil {
		f.Fatal(err)
	}
	if err := svc.AddXML("multi.xml", multiSiteXML(2)); err != nil {
		f.Fatal(err)
	}
	srv := New(svc, WithDefaultTimeout(100*time.Millisecond), WithMaxTimeout(100*time.Millisecond))
	f.Fuzz(func(t *testing.T, corpus bool, body []byte) {
		path := "/v1/query"
		if corpus {
			path = "/v1/corpus/query"
		}
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s %q: no answer 5 s into a 100 ms timeout", path, body)
		}
		switch code := rec.Code; {
		case code >= 500 && code != http.StatusGatewayTimeout:
			t.Fatalf("%s %q: status %d: %s", path, body, code, rec.Body.Bytes())
		case code == http.StatusOK && !json.Valid(rec.Body.Bytes()):
			t.Fatalf("%s %q: 200 with invalid JSON: %s", path, body, rec.Body.Bytes())
		}
	})
}
