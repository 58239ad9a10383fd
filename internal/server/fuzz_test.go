package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
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
