package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/service"
	"repro/internal/tree"
)

// resultEntryJSON and envelopeJSON are the reference form of the /v1
// envelope: what encoding/json makes of them, with HTML escaping off, is the
// byte format envWriter must reproduce.
type resultEntryJSON struct {
	Doc        string  `json:"doc"`
	DocVersion uint64  `json:"doc_version"`
	Node       int32   `json:"node"`
	Answer     []int32 `json:"answer,omitempty"`
	Score      *int    `json:"score,omitempty"`
}

type envelopeJSON struct {
	Results   []resultEntryJSON `json:"results"`
	Total     int               `json:"total"`
	Truncated bool              `json:"truncated"`
	Version   string            `json:"version"`
	RequestID string            `json:"request_id"`
	ID        string            `json:"id,omitempty"`
	Docs      int               `json:"docs,omitempty"`
	Plan      *planJSON         `json:"plan,omitempty"`
	Failed    []docErrorJSON    `json:"failed,omitempty"`
	Timings   map[string]any    `json:"timings,omitempty"`
}

// referenceEntry builds one reference results element.
func referenceEntry(doc string, version uint64, node tree.NodeID, answer cq.Answer, score *int) resultEntryJSON {
	e := resultEntryJSON{Doc: doc, DocVersion: version, Node: int32(node), Score: score}
	if answer != nil {
		e.Answer = make([]int32, len(answer))
		for i, n := range answer {
			e.Answer[i] = int32(n)
		}
		e.Node = 0
		if len(answer) > 0 {
			e.Node = e.Answer[0]
		}
	}
	return e
}

// referenceResult is one document's results, cut at limit: hits, then nodes,
// then answers.
func referenceResult(doc string, version uint64, res *core.Result, limit int) (entries []resultEntryJSON, total int, truncated bool) {
	entries = []resultEntryJSON{}
	for _, h := range res.Hits {
		score := h.Distance
		entries = append(entries, referenceEntry(doc, version, h.Node, nil, &score))
	}
	for _, n := range res.Nodes {
		entries = append(entries, referenceEntry(doc, version, n, nil, nil))
	}
	for _, a := range res.Answers {
		entries = append(entries, referenceEntry(doc, version, 0, a, nil))
	}
	total = len(entries)
	if limit > 0 && total > limit {
		entries, truncated = entries[:limit], true
	}
	return entries, total, truncated
}

// referenceCorpus merges a fan-out the way the envelope defines it,
// independently of the order Aggregate relies on: every match sorted, hits
// by (distance, doc, node) and the rest by (doc, node or tuple), each kind
// cut at limit.
func referenceCorpus(results []service.DocResult, limit int) (entries []resultEntryJSON, total int, truncated bool) {
	type ranked struct {
		e        resultEntryJSON
		distance int
		tuple    cq.Answer
	}
	var hits, nodes, answers []ranked
	for _, r := range results {
		if r.Err != nil || r.Result == nil {
			continue
		}
		for _, h := range r.Result.Hits {
			score := h.Distance
			hits = append(hits, ranked{e: referenceEntry(r.Doc, r.Version, h.Node, nil, &score), distance: h.Distance})
		}
		for _, n := range r.Result.Nodes {
			nodes = append(nodes, ranked{e: referenceEntry(r.Doc, r.Version, n, nil, nil)})
		}
		for _, a := range r.Result.Answers {
			answers = append(answers, ranked{e: referenceEntry(r.Doc, r.Version, 0, a, nil), tuple: a})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		if a.distance != b.distance {
			return a.distance < b.distance
		}
		if a.e.Doc != b.e.Doc {
			return a.e.Doc < b.e.Doc
		}
		return a.e.Node < b.e.Node
	})
	sort.Slice(nodes, func(i, j int) bool {
		a, b := nodes[i].e, nodes[j].e
		if a.Doc != b.Doc {
			return a.Doc < b.Doc
		}
		return a.Node < b.Node
	})
	sort.Slice(answers, func(i, j int) bool {
		a, b := answers[i], answers[j]
		if a.e.Doc != b.e.Doc {
			return a.e.Doc < b.e.Doc
		}
		return slices.Compare(a.tuple, b.tuple) < 0
	})
	total = len(hits) + len(nodes) + len(answers)
	entries = []resultEntryJSON{}
	for _, kind := range [][]ranked{hits, nodes, answers} {
		if limit > 0 && len(kind) > limit {
			kind, truncated = kind[:limit], true
		}
		for _, r := range kind {
			entries = append(entries, r.e)
		}
	}
	return entries, total, truncated
}

// referenceBytes encodes env the way the handlers did with encoding/json.
func referenceBytes(t testing.TB, env envelopeJSON) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzResult derives one document's result from the fuzz bytes, in the
// order contract of core.Result: nodes ascending and distinct, answers
// sorted and distinct, hits by (distance, node).  kind picks the field;
// arity 0 makes the empty tuples of a Boolean query.
func fuzzResult(data []byte, kind, arity int) *core.Result {
	vals := make([]tree.NodeID, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		vals = append(vals, tree.NodeID(data[i])<<8|tree.NodeID(data[i+1]))
	}
	res := &core.Result{}
	switch kind {
	case 0:
		slices.Sort(vals)
		res.Nodes = slices.Compact(vals)
	case 1:
		for i := 0; i+arity <= len(vals); i += max(arity, 1) {
			res.Answers = append(res.Answers, cq.Answer(vals[i:i+arity]))
		}
		slices.SortFunc(res.Answers, func(a, b cq.Answer) int { return slices.Compare(a, b) })
		res.Answers = slices.CompactFunc(res.Answers, func(a, b cq.Answer) bool { return slices.Equal(a, b) })
	default:
		for i, v := range vals {
			res.Hits = append(res.Hits, core.Hit{Node: v, Distance: int(data[i] % 5)})
		}
		slices.SortFunc(res.Hits, func(a, b core.Hit) int {
			if a.Distance != b.Distance {
				return a.Distance - b.Distance
			}
			return int(a.Node - b.Node)
		})
		res.Hits = slices.CompactFunc(res.Hits, func(a, b core.Hit) bool { return a.Node == b.Node })
	}
	return res
}

// FuzzEnvelopeEncoding holds envWriter byte-identical to encoding/json of
// the reference envelope, on the single-document routes and on the corpus
// route, over arbitrary names and request ids, versions, node ids, tuples,
// scores, limits and every combination of the optional fields.
func FuzzEnvelopeEncoding(f *testing.F) {
	f.Add("doc.xml", "b.xml", "req-1", "note", uint64(1), []byte{0, 3, 0, 1, 1, 0, 0, 9}, uint8(0), uint8(0))
	f.Add(`q"uo\te`, "<a>&b", "id\x00\x1f\x7f", "line\u2028sep\u2029", uint64(1)<<63, []byte{0, 1, 0, 2, 0, 3}, uint8(1|2<<2|1<<4), uint8(2))
	f.Add("bad\xffutf8", "\xc3", "\b\f\n\r\t", "ünï", uint64(0), []byte{0, 7, 0, 7, 0, 1}, uint8(2|3<<4), uint8(1))
	f.Add("x", "y", "r", "", uint64(7), []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1|7<<4), uint8(0))
	f.Add("x", "y", "r", "n", uint64(2), []byte{}, uint8(3|1<<4), uint8(3))
	f.Fuzz(func(t *testing.T, doc1, doc2, reqID, note string, version uint64, data []byte, flags, limit uint8) {
		kind, arity := int(flags&3), int(flags>>2&3)
		if kind == 3 {
			kind = 1 // answers get two of the four kinds: tuples and Boolean
			arity = 0
		}
		opts := flags >> 4
		half := len(data) / 2 &^ 1
		docs := []string{doc1, doc2}
		sort.Strings(docs)
		if docs[0] == docs[1] {
			docs[1] += "~"
		}
		res := fuzzResult(data, kind, arity)
		results := []service.DocResult{
			{Doc: docs[0], Version: version, Result: fuzzResult(data[:half], kind, arity)},
			{Doc: docs[1], Version: version + 1, Result: fuzzResult(data[half:], kind, arity)},
		}

		var plan *core.Plan
		if opts&1 != 0 {
			plan = &core.Plan{
				Language: doc1, Technique: note,
				PrepareDuration: time.Duration(version), ExecDuration: -time.Duration(limit),
			}
			if opts&8 != 0 {
				plan.Notes = []string{note, reqID}
			}
		}
		var failed []docErrorJSON
		if opts&2 != 0 {
			failed = []docErrorJSON{{Doc: doc2, Error: note}}
		}
		var timings map[string]any
		if opts&4 != 0 {
			timings = map[string]any{"request_id": reqID, "stages": []map[string]any{{"stage": note, "ns": int64(version)}}}
		}

		check := func(route string, got []byte, want envelopeJSON) {
			t.Helper()
			if w := referenceBytes(t, want); !bytes.Equal(got, w) {
				t.Fatalf("%s:\n got %q\nwant %q", route, got, w)
			}
		}

		// The single-document routes (/v1/query, /v1/prepared/{id}).
		env := envelope{RequestID: reqID, ID: note, Plan: plan, Timings: timings}
		ew := newEnvWriter()
		ew.result(&env, doc1, version, res, int(limit))
		ew.finish(&env)
		want := envelopeJSON{Version: APIVersion, RequestID: reqID, ID: note, Plan: toPlanJSON(plan), Timings: timings}
		want.Results, want.Total, want.Truncated = referenceResult(doc1, version, res, int(limit))
		check("document", ew.buf, want)
		ew.release()

		// The corpus route.
		agg := service.Aggregate(results, int(limit))
		env = envelope{RequestID: reqID, Docs: agg.Docs, Total: agg.Total, Truncated: agg.Truncated, Failed: failed, Timings: timings}
		ew = newEnvWriter()
		ew.corpus(agg)
		ew.finish(&env)
		want = envelopeJSON{Version: APIVersion, RequestID: reqID, Docs: len(results), Failed: failed, Timings: timings}
		want.Results, want.Total, want.Truncated = referenceCorpus(results, int(limit))
		check("corpus", ew.buf, want)
		ew.release()
	})
}

// TestEnvelopeCarriesExecutedVersion: a corpus entry is labelled with the
// version its document was executed against (DocResult.Version), whatever
// version the service holds when the envelope is written.
func TestEnvelopeCarriesExecutedVersion(t *testing.T) {
	svc := service.New()
	if err := svc.Add("a.xml", tree.MustParseSexpr("r(k k)")); err != nil {
		t.Fatal(err)
	}
	results := svc.QueryCorpus(context.Background(), core.LangXPath, "//k")
	if len(results) != 1 || results[0].Err != nil || results[0].Version != 1 {
		t.Fatalf("results = %+v", results)
	}
	if _, err := svc.UpdateDoc("a.xml", tree.MustParseSexpr("r(k)")); err != nil {
		t.Fatal(err)
	}
	if v := svc.Versions()["a.xml"]; v != 2 {
		t.Fatalf("service version %d, want 2", v)
	}
	results[0].Version = 7 // any executed version, unrelated to the current 2
	agg := service.Aggregate(results, 0)
	env := envelope{RequestID: "r", Docs: agg.Docs, Total: agg.Total, Truncated: agg.Truncated}
	ew := newEnvWriter()
	defer ew.release()
	ew.corpus(agg)
	ew.finish(&env)
	var got envelopeJSON
	if err := json.Unmarshal(ew.buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 2 {
		t.Fatalf("results = %+v, want the two matches of the executed revision", got.Results)
	}
	for _, e := range got.Results {
		if e.DocVersion != 7 {
			t.Errorf("entry %+v: doc_version %d, want the executed 7", e, e.DocVersion)
		}
	}
	if s := fmt.Sprint(got.Total, got.Truncated); s != "2 false" {
		t.Errorf("total, truncated = %s, want 2 false", s)
	}
}

// TestCorpusDocVersionUnderConcurrentPuts interleaves PUTs of two contents
// with different match counts (odd versions hold two, even versions five)
// with corpus queries, and checks that every response labels each
// document's matches with the version that produced them.
func TestCorpusDocVersionUnderConcurrentPuts(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	contents := [2]string{"<r><k/><k/><k/><k/><k/></r>", "<r><k/><k/></r>"}
	want := [2]int{5, 2} // matches at even / odd versions
	putDoc(t, ts.URL, "a.xml", "<r><k/></r>")
	if code, _ := putDoc(t, ts.URL, "d.xml", contents[1]); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	const puts = 60
	done, stop := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-done }() // a failed check waits for the writer
	go func() {
		defer close(done)
		for v := 2; v <= puts; v++ {
			select {
			case <-stop:
				return
			default:
			}
			req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/docs/d.xml", strings.NewReader(contents[v%2]))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("PUT version %d: status %d", v, resp.StatusCode)
				return
			}
		}
	}()
	queries := 0
	for running := true; running || queries < 5; queries++ {
		select {
		case <-done:
			running = false
		default:
		}
		code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/corpus/query", map[string]any{"lang": core.LangXPath, "query": "//k"})
		if code != http.StatusOK {
			t.Fatalf("corpus query: status %d (%v)", code, body)
		}
		versions := map[uint64]int{}
		for _, e := range body["results"].([]any) {
			entry := e.(map[string]any)
			if entry["doc"] == "d.xml" {
				versions[uint64(entry["doc_version"].(float64))]++
			}
		}
		if len(versions) != 1 {
			t.Fatalf("query %d: d.xml matches span versions %v", queries, versions)
		}
		for v, n := range versions {
			if n != want[v%2] {
				t.Fatalf("query %d: d.xml version %d has %d matches, want %d", queries, v, n, want[v%2])
			}
		}
	}
}
