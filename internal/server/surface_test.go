package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/service"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/surface.golden from the current server")

// TestCounterSurface pins the observable shape of the counter surfaces: every
// /v1/statusz key path with its JSON kind (an integer must stay an integer),
// and every /v1/metrics family with its type, help text and label names.
// The traffic before the reads reaches every /v1 route and one document
// update, under the registry layout treeqd uses (one registry shared by the
// service and the server).  Run with -update-golden to rewrite the golden
// file after a deliberate change to either surface.
func TestCounterSurface(t *testing.T) {
	reg := obsv.NewRegistry()
	ts, _ := newTestServer(t, []service.Option{service.WithMetrics(reg)}, WithRegistry(reg))

	doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	putDoc(t, ts.URL, "a.xml", siteXML(3))
	putDoc(t, ts.URL, "b.xml", multiSiteXML(2))
	putDoc(t, ts.URL, "gone.xml", siteXML(1))
	putDoc(t, ts.URL, "a.xml", siteXML(4)) // the one update
	doJSON(t, http.MethodGet, ts.URL+"/v1/docs", nil)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/docs/gone.xml", nil)
	for _, q := range []struct{ lang, text string }{
		{core.LangXPath, "//item/name"},
		{core.LangCQ, "Q(k) :- Lab[item](i), Child+(i, k), Lab[keyword](k)."},
		{core.LangTwig, "//item[name]//keyword"},
		{core.LangStream, "//item//keyword"},
		{core.LangDatalog, "P(x) :- Lab[keyword](x).\n?- P."},
		{core.LangSimilar, "k=2 description(keyword)"},
	} {
		if code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/query", map[string]any{
			"doc": "a.xml", "lang": q.lang, "query": q.text}); code != http.StatusOK {
			t.Fatalf("%s %q: status %d, %v", q.lang, q.text, code, body)
		}
	}
	doJSON(t, http.MethodPost, ts.URL+"/v1/corpus/query", map[string]any{
		"lang": core.LangXPath, "query": "//keyword", "limit": 3})
	_, reg1 := doJSON(t, http.MethodPost, ts.URL+"/v1/prepared", map[string]any{
		"doc": "b.xml", "lang": core.LangXPath, "query": "//keyword"})
	id, _ := reg1["id"].(string)
	doJSON(t, http.MethodGet, ts.URL+"/v1/prepared", nil)
	doJSON(t, http.MethodPost, ts.URL+"/v1/prepared/"+id, nil)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/prepared/"+id, nil)
	scrapeText(t, ts.URL)

	var b strings.Builder
	resp, err := http.Get(ts.URL + "/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var status any
	err = dec.Decode(&status)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	writeKeyPaths(&b, "", status)

	fams, err := obsv.ParseExposition(scrapeText(t, ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		f := fams[name]
		fmt.Fprintf(&b, "metrics %s %s labels=%s help=%q\n", name, f.Type, labelNames(f), f.Help)
	}

	golden := filepath.Join("testdata", "surface.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("counter surface differs from %s (run with -update-golden after a deliberate change):\n%s",
			golden, lineDiff(string(want), got))
	}
}

// writeKeyPaths writes one "statusz PATH KIND" line per JSON value under v,
// objects descended in key order.
func writeKeyPaths(b *strings.Builder, path string, v any) {
	kind := ""
	switch v := v.(type) {
	case map[string]any:
		kind = "object"
		if path != "" {
			fmt.Fprintf(b, "statusz %s %s\n", path, kind)
		}
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			p := k
			if path != "" {
				p = path + "." + k
			}
			writeKeyPaths(b, p, v[k])
		}
		return
	case json.Number:
		kind = "integer"
		if strings.ContainsAny(string(v), ".eE") {
			kind = "float"
		}
	case string:
		kind = "string"
	case bool:
		kind = "bool"
	case []any:
		kind = "array"
	case nil:
		kind = "null"
	}
	fmt.Fprintf(b, "statusz %s %s\n", path, kind)
}

// labelNames lists the label names a family's samples carry ("le" and the
// histogram suffixes aside), or "-" for a family without labels.
func labelNames(f *obsv.ExpoFamily) string {
	var names []string
	for key := range f.Samples {
		_, labels, ok := strings.Cut(key, "{")
		if !ok {
			continue
		}
		for _, pair := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			name, _, _ := strings.Cut(pair, "=")
			if name != "le" && !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	if len(names) == 0 {
		return "-"
	}
	slices.Sort(names)
	return strings.Join(names, ",")
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b bytes.Buffer
	for _, l := range w {
		if !slices.Contains(g, l) {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range g {
		if !slices.Contains(w, l) {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
