package server

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/xmldoc"
)

// decoderSeeds are bodies aimed at the edges of the hand-written body
// decoder (body.go), where it must agree with encoding/json.
var decoderSeeds = []string{
	// \u escapes, surrogate pairs, lone surrogates, invalid UTF-8.
	`{"doc":"doc.xml","lang":"xpath","query":"//keyword"}`,
	`{"doc":"doc.xml","lang":"xpath","query":"//a[@x='😀']"}`,
	`{"doc":"\ud800","lang":"\udc00\ud800","query":"\ud800A"}`,
	`{"doc":"\ud83dA","lang":"xpath","query":"\ud83d\ude0"}`,
	`{"doc":"a\/b\"c\\d\b\f\n\r\t","lang":"xpath","query":"//keyword"}`,
	`{"doc":"a\x","lang":"xpath"}`,
	"{\"doc\":\"\xff\xfe\",\"lang\":\"xpath\",\"query\":\"//a\"}",
	"{\"doc\":\"\xed\xa0\x80\xef\xbf\xbd\",\"lang\":\"xpath\",\"query\":\"//keyword\"}",
	"{\"d\xffoc\":\"doc.xml\"}",
	"{\"doc\":\"tab\there\"}",
	// Case-folded and duplicate keys.
	`{"DOC":"doc.xml","Lang":"xpath","QUERY":"//keyword"}`,
	`{"lang":"xpath","query":"//keyword","timeout_mſ":5,"LIMIT":1}`,
	`{"Lang":"xpath","query":"//keyword","ℓimit":1}`,
	`{"doc":"nope.xml","doc":"doc.xml","lang":"xpath","query":"//keyword","limit":1,"limit":null}`,
	`{"plan":true,"plan":false,"doc":"doc.xml","lang":"xpath","query":"//keyword"}`,
	// null, whitespace and trailing bytes.
	`null`,
	`nullx`,
	`nul`,
	`{"doc":null,"lang":"xpath","query":"//keyword","plan":null}`,
	" \t\r\n{ \"doc\" : \"doc.xml\" , \"lang\":\"xpath\" ,\"query\":\"//keyword\" } \n",
	`{"doc":"doc.xml","lang":"xpath","query":"//keyword"}garbage`,
	`{"lang":"xpath","query":"//keyword"}}`,
	`{} {}`,
	`{"lang":"xpath",}`,
	`{"lang" "xpath"}`,
	`{"lang":"xpath"`,
	"\xef\xbb\xbf{}",
	// Exponent, float and overflowing numbers.
	`{"limit":1e2}`,
	`{"limit":1.0}`,
	`{"limit":1E+2}`,
	`{"limit":-0}`,
	`{"limit":01}`,
	`{"limit":-}`,
	`{"limit":9223372036854775807,"timeout_ms":0}`,
	`{"limit":9223372036854775808}`,
	`{"timeout_ms":-9223372036854775809}`,
	`{"doc_timeout_ms":1.5e300}`,
	// Values of the wrong type.
	`{"doc":1}`,
	`{"plan":"true"}`,
	`{"plan":1}`,
	`{"plan":tru}`,
	`{"doc":{"a":1}}`,
	`{"doc":[]}`,
	`[]`,
	`"doc"`,
	`1`,
	`true`,
}

// sameDecode fails t unless unmarshal (the hand decoder into got) and
// encoding/json's Decoder with DisallowUnknownFields (into want) agree on
// body: both accept it with equal results, or both reject it.
func sameDecode[T comparable](t *testing.T, body []byte, got *T, unmarshal func(string) error) {
	t.Helper()
	var want T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	wantErr := dec.Decode(&want)
	gotErr := unmarshal(string(body))
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%q: decoder error %v, encoding/json error %v", body, gotErr, wantErr)
	case gotErr == nil && *got != want:
		t.Fatalf("%q: decoded %+v, encoding/json decoded %+v", body, *got, want)
	}
}

// FuzzV1QueryBody sends arbitrary bodies to POST /v1/query (corpus false)
// and POST /v1/corpus/query (corpus true) over a two-document corpus, one
// document multi-labeled, under a short default and maximum timeout.  The
// body decoder must agree with encoding/json on the body (sameDecode).  The
// handler must not panic, must answer within seconds (a hang would otherwise
// stall the fuzzer without a report), must answer no 5xx but a 504, and every
// 200 must carry valid JSON.  The seeds are the request bodies of the server
// tests, then decoderSeeds.
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
	for _, s := range append(seeds, decoderSeeds...) {
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
			var got corpusQueryRequest
			sameDecode(t, body, &got, got.unmarshal)
		} else {
			var got queryRequest
			sameDecode(t, body, &got, got.unmarshal)
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

// FuzzV1PreparedBody sends arbitrary bodies to POST /v1/prepared.  The body
// decoder must agree with encoding/json (sameDecode); the handler must not
// panic or answer 5xx, and a 201 must carry valid JSON with the new id, which
// is deleted again so the registry does not grow with the corpus.
func FuzzV1PreparedBody(f *testing.F) {
	seeds := []string{
		`{"doc":"doc.xml","lang":"xpath","query":"//keyword"}`,
		`{"doc":"doc.xml","lang":"cq","query":"Q(k) :- Lab[keyword](k).","timeout_ms":50}`,
		`{"doc":"doc.xml","lang":"datalog","query":"P(x) :- Lab[keyword](x).\n?- P."}`,
		`{"doc":"doc.xml","lang":"similar","query":"k=2 description(keyword)"}`,
		`{"doc":"nope.xml","lang":"xpath","query":"//a"}`,
		`{"doc":"doc.xml","lang":"xpath","query":"//["}`,
		`{"doc":"doc.xml","lang":"bogus","query":"//a"}`,
		`{"doc":"doc.xml","lang":"xpath","query":"//a","timeout_ms":-1}`,
		`{"doc":"doc.xml","lang":"xpath","query":"//a","limit":1}`,
		`{}`,
		``,
	}
	for _, s := range append(seeds, decoderSeeds...) {
		f.Add([]byte(s))
	}
	svc := service.New()
	if err := svc.AddXML("doc.xml", siteXML(3)); err != nil {
		f.Fatal(err)
	}
	srv := New(svc, WithDefaultTimeout(100*time.Millisecond), WithMaxTimeout(100*time.Millisecond))
	f.Fuzz(func(t *testing.T, body []byte) {
		var got prepareRequest
		sameDecode(t, body, &got, got.unmarshal)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/prepared", bytes.NewReader(body)))
		switch code := rec.Code; {
		case code >= 500:
			t.Fatalf("%q: status %d: %s", body, code, rec.Body.Bytes())
		case code == http.StatusCreated:
			var reg struct{ ID string }
			if err := json.Unmarshal(rec.Body.Bytes(), &reg); err != nil || !strings.HasPrefix(reg.ID, "p") {
				t.Fatalf("%q: 201 without a prepared id: %s", body, rec.Body.Bytes())
			}
			del := httptest.NewRecorder()
			srv.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/prepared/"+reg.ID, nil))
			if del.Code != http.StatusOK {
				t.Fatalf("deleting %s: status %d", reg.ID, del.Code)
			}
		}
	})
}

// FuzzPutDocBody sends arbitrary bodies to PUT /v1/docs/doc.xml beside a
// fixed document, so one input adds the document and the next updates it.
// The handler must not panic or answer 5xx.  A 2xx must leave the document
// listed by GET /v1/docs and answering a corpus query at the version the PUT
// reported; any other answer must leave the corpus as it was.  The seeds are
// FuzzParse's documents and documents at and past xmldoc.MaxDepth.
func FuzzPutDocBody(f *testing.F) {
	for _, s := range []string{
		siteXML(3),
		multiSiteXML(2),
		`<a>x<b/>z</a>`,
		`<a>x &amp; y<b>q</b>z<c/>w</a>`,
		`<?xml version="1.0"?><!DOCTYPE r><r a="1" b='&lt;"'><!-- c --><s/><![CDATA[ x ]]></r>`,
		`<r path="c:\dir" v="a&#10;b&#9;c"><s><![CDATA[ ]]></s>&#65;&#x42;</r>`,
		`<a><b></a></b>`,
		`<a id="3></a>`,
		`<a>&#65abc;</a>`,
		`<a>&#xD800;</a>`,
		`<a/><b/>`,
		`text only`,
		strings.Repeat("<a>", xmldoc.MaxDepth) + strings.Repeat("</a>", xmldoc.MaxDepth),
		strings.Repeat("<a>", xmldoc.MaxDepth+1) + strings.Repeat("</a>", xmldoc.MaxDepth+1),
		``,
	} {
		f.Add([]byte(s))
	}
	svc := service.New()
	if err := svc.AddXML("base.xml", siteXML(1)); err != nil {
		f.Fatal(err)
	}
	srv := New(svc, WithDefaultTimeout(time.Second), WithMaxTimeout(time.Second))
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<17 {
			t.Skip("oversized input")
		}
		before := svc.Versions()
		rec := serve(http.MethodPut, "/v1/docs/doc.xml", body)
		if rec.Code >= 500 {
			t.Fatalf("PUT %q: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code/100 != 2 {
			if after := svc.Versions(); !maps.Equal(after, before) {
				t.Fatalf("PUT %q: status %d changed the corpus from %v to %v", body, rec.Code, before, after)
			}
			return
		}
		var put struct{ Version uint64 }
		if err := json.Unmarshal(rec.Body.Bytes(), &put); err != nil || put.Version == 0 {
			t.Fatalf("PUT %q: status %d without a version: %s", body, rec.Code, rec.Body.Bytes())
		}

		var list struct{ Docs []string }
		if rec := serve(http.MethodGet, "/v1/docs", nil); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &list) != nil ||
			!slices.Equal(list.Docs, []string{"base.xml", "doc.xml"}) {
			t.Fatalf("PUT %q: GET /v1/docs answers %d %s", body, rec.Code, rec.Body.Bytes())
		}

		rec = serve(http.MethodPost, "/v1/corpus/query", []byte(`{"lang":"xpath","query":"//*"}`))
		var env struct {
			Docs    int
			Failed  []any
			Results []struct {
				Doc        string
				DocVersion uint64 `json:"doc_version"`
			}
		}
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Docs != 2 || len(env.Failed) != 0 {
			t.Fatalf("PUT %q: corpus query answers %d %s", body, rec.Code, rec.Body.Bytes())
		}
		answered := false
		for _, r := range env.Results {
			if r.Doc == "doc.xml" {
				answered = true
				if r.DocVersion != put.Version {
					t.Fatalf("PUT %q made version %d; the corpus query answers from version %d", body, put.Version, r.DocVersion)
				}
			}
		}
		if !answered {
			t.Fatalf("PUT %q: the corpus query has no answer from doc.xml: %s", body, rec.Body.Bytes())
		}
	})
}
