package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/xmldoc"
)

// small shrinks a workload so the tests stay fast; the shape (queries, mix,
// write share, document states) is the real one.
func small(t testing.TB, name string) spec {
	t.Helper()
	s, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	if s.docs > 8 {
		s.docs = 8
	}
	s.items, s.traceN = 30, 80
	return s
}

func streamBytes(c *corpus, client, clients, n int) []byte {
	var b bytes.Buffer
	st := newStream(c, client, clients)
	for i := 0; i < n; i++ {
		r := st.next()
		fmt.Fprintf(&b, "%s %s %d %d %d %d\n", r.method, r.path, r.doc, r.state, r.q, r.version)
		b.Write(r.body)
	}
	return b.Bytes()
}

func TestStreamIsDecidedBySeed(t *testing.T) {
	for _, s := range specs {
		s := small(t, s.name)
		a, b, other := newCorpus(s, 7), newCorpus(s, 7), newCorpus(s, 8)
		for client := 0; client < 2; client++ {
			x, y := streamBytes(a, client, 2, 300), streamBytes(b, client, 2, 300)
			if !bytes.Equal(x, y) {
				t.Errorf("%s client %d: same seed, different request streams", s.name, client)
			}
			if bytes.Equal(x, streamBytes(other, client, 2, 300)) {
				t.Errorf("%s client %d: seeds 7 and 8 give the same request stream", s.name, client)
			}
		}
		if bytes.Equal(streamBytes(a, 0, 2, 300), streamBytes(a, 1, 2, 300)) {
			t.Errorf("%s: clients 0 and 1 send the same requests", s.name)
		}
	}
}

func TestWritersOwnDisjointDocuments(t *testing.T) {
	c := newCorpus(small(t, "update_churn"), 1)
	seen := map[int]int{}
	for client := 0; client < 2; client++ {
		st := newStream(c, client, 2)
		for i := 0; i < 500; i++ {
			r := st.next()
			if owner, ok := seen[r.doc]; ok && owner != client {
				t.Fatalf("document %d touched by clients %d and %d", r.doc, owner, client)
			}
			seen[r.doc] = client
		}
	}
	if len(seen) != len(c.docs) {
		t.Errorf("clients touched %d of %d documents", len(seen), len(c.docs))
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(append([]float64(nil), xs...), tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median(5,1,3) = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	ms := func(v ...int) []sample {
		var out []sample
		for _, x := range v {
			out = append(out, sample{latency: time.Duration(x) * time.Millisecond})
		}
		return out
	}
	windows := [][]sample{ms(1, 1, 1), ms(9, 9, 9), ms(2, 2, 2), ms(3, 3, 3)}
	if got := median(perWindow(windows, func(w []sample) float64 { return percentile(latenciesMS(w, ""), 50) })); got != 2.5 {
		t.Errorf("median window of p50s 1,9,2,3 = %v, want 2.5", got)
	}
}

func TestQuietKeepsUndisturbedIntervals(t *testing.T) {
	for _, tc := range []struct {
		stolen []float64
		want   []int
	}{
		{[]float64{0, 0.002, 0, 0.01, 0, 0, 0, 0}, []int{0, 1, 2, 3, 4, 5, 6, 7}}, // all quiet
		{[]float64{0.4, 0, 0.02, 0, 0.3, 0.005, 0, 0.011}, []int{1, 3, 5, 6}},     // the disturbed ones dropped
		{[]float64{0.4, 0.3, 0.02, 0.5, 0.3, 0.05, 0.6, 0.2}, []int{2, 5, 7}},     // none quiet: the three least disturbed
		{[]float64{0.4, 0, 0.3, 0.5, 0.2}, []int{1, 2, 4}},                        // one quiet: topped up to three
		{[]float64{0.4, 0.5}, []int{0, 1}},                                        // fewer than three to choose from
	} {
		got := quiet(tc.stolen)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("quiet(%v) = %v, want %v", tc.stolen, got, tc.want)
		}
	}
	if got := pick([]string{"a", "b", "c", "d"}, []int{1, 3}); fmt.Sprint(got) != "[b d]" {
		t.Errorf("pick = %v, want [b d]", got)
	}
}

// TestEditsAreTheIntendedKinds drives the write stream into an in-process
// service and checks how each edit was applied: small edits by patching, with
// the diff kind the toggle implies, and whole replacements by a rebuild.
func TestEditsAreTheIntendedKinds(t *testing.T) {
	c := newCorpus(small(t, "update_churn"), 3)
	svc := service.New()
	for _, d := range c.docs {
		if err := svc.AddXML(d.name, d.states[0].xml); err != nil {
			t.Fatal(err)
		}
	}
	st := newStream(c, 0, 1)
	writes, patched := 0, 0
	kinds := map[string]int{}
	for writes < 300 {
		r := st.next()
		if r.q >= 0 {
			continue
		}
		tr, err := xmldoc.Parse(string(r.body))
		if err != nil {
			t.Fatal(err)
		}
		o, err := svc.UpdateDoc(c.docs[r.doc].name, tr)
		if err != nil {
			t.Fatal(err)
		}
		if o.Version != r.version {
			t.Fatalf("write %d: version %d, stream expected %d", writes, o.Version, r.version)
		}
		bit := r.flipped
		writes++
		kinds[o.Kind]++
		if o.Patched {
			patched++
		}
		var want []string
		switch bit {
		case bitText, bitRelabel:
			want = []string{"relabel"}
		case bitNode:
			want = []string{"insert", "delete"}
		case bitBase:
			want = []string{"rebuild"}
			if r.kind != kindPutBig {
				t.Errorf("replacement reported as %s", r.kind)
			}
		default:
			t.Fatalf("write %d flipped bits %04b, want exactly one", writes, bit)
		}
		ok := false
		for _, w := range want {
			ok = ok || o.Kind == w
		}
		if !ok {
			t.Errorf("write %d flipping bit %04b applied as %q (patched %v), want one of %v", writes, bit, o.Kind, o.Patched, want)
		}
	}
	if share := float64(patched) / float64(writes); share < 0.8 {
		t.Errorf("%.0f%% of writes patched, want at least 80%%; kinds %v", share*100, kinds)
	}
	for _, k := range []string{"relabel", "insert", "delete", "rebuild"} {
		if kinds[k] == 0 {
			t.Errorf("no write applied as %q in %d; kinds %v", k, writes, kinds)
		}
	}
}

// TestSmokeEveryWorkload pushes 200 requests of each workload through a real
// server behind httptest, over the benchmark's own connection type, and
// expects the oracle to pass every one.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			c := newCorpus(small(t, s.name), 1)
			o, err := newOracle(c)
			if err != nil {
				t.Fatal(err)
			}
			tw, err := newTwin(&corpus{spec: c.spec}) // empty: documents arrive by PUT
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(tw.srv)
			defer ts.Close()
			addr := ts.Listener.Addr().String()
			d := &daemon{addr: addr, conn: &conn{addr: addr}}
			defer d.conn.close()
			if err := d.setUp(o); err != nil {
				t.Fatal(err)
			}
			for client := 0; client < 2; client++ {
				cn := &conn{addr: addr}
				defer cn.close()
				st := newStream(c, client, 2)
				for i := 0; i < 100; i++ {
					r := st.next()
					status, body, err := cn.do(r, "")
					if err != nil {
						t.Fatal(err)
					}
					if why := o.check(r, status, body); why != "" {
						t.Fatalf("request %d (%s %s): %s", i, r.method, r.path, why)
					}
				}
			}
		})
	}
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	c := newCorpus(small(t, "point_hot"), 1)
	o, err := newOracle(c)
	if err != nil {
		t.Fatal(err)
	}
	r := newStream(c, 0, 1).next()
	want := o.table[expectKey{r.doc, r.state, r.q}]
	if want.total == 0 {
		t.Fatal("first request has an empty answer; pick another seed")
	}
	good := envelope{Total: want.total, Truncated: want.truncated}
	tw, err := newTwin(c)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	tw.srv.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body)))
	if err := json.Unmarshal(rec.Body.Bytes(), &good); err != nil {
		t.Fatal(err)
	}
	if why := o.checkEnvelope(r, &good); why != "" {
		t.Fatalf("the server's own answer fails: %s", why)
	}
	for name, mutate := range map[string]func(e *envelope){
		"total":     func(e *envelope) { e.Total++ },
		"truncated": func(e *envelope) { e.Truncated = !e.Truncated },
		"version":   func(e *envelope) { e.Results[0].DocVersion++ },
		"node":      func(e *envelope) { e.Results[0].Node++ },
		"dropped":   func(e *envelope) { e.Results = e.Results[1:] },
	} {
		bad := good
		bad.Results = append([]entry(nil), good.Results...)
		mutate(&bad)
		if o.checkEnvelope(r, &bad) == "" {
			t.Errorf("oracle accepted an answer with a wrong %s", name)
		}
	}
	if o.check(r, 429, []byte(`{"error":"saturated"}`)) == "" {
		t.Error("oracle accepted a 429")
	}
}

// strayAllocs is how many objects of the runtime's own two replays may differ
// by in total: repeatableMean removes such an object when an identical
// request ran without it, which a request sent once cannot show.
const strayAllocs = 3

// TestTracedCountsRepeat runs the in-process replay three times and expects
// every count, ratio and byte size — everything that is not a time — to be
// the same in the last two.  (The first run of a process also pays one-off
// initialisation, which two traced runs in two processes pay alike.)
func TestTracedCountsRepeat(t *testing.T) {
	for _, name := range []string{"point_hot", "update_churn"} {
		c := newCorpus(small(t, name), 1)
		o, err := newOracle(c)
		if err != nil {
			t.Fatal(err)
		}
		var runs [3]map[string]float64
		for i := range runs {
			runs[i] = map[string]float64{}
			attempted, failed, err := inProcess(o, &tracer{t0: time.Now()}, runs[i])
			if err != nil {
				t.Fatal(err)
			}
			if attempted != c.traceN || failed != 0 {
				t.Fatalf("%s: %d attempted, %d failed, want %d and 0", name, attempted, failed, c.traceN)
			}
		}
		for _, pm := range perLayer {
			if pm.unit == "us" || pm.unit == "ms" {
				continue
			}
			a, okA := runs[1][pm.name]
			b, okB := runs[2][pm.name]
			if pm.name == "server.allocs_per_req" && math.Abs(a-b) <= strayAllocs/float64(c.traceN) {
				continue
			}
			if okA != okB || a != b {
				t.Errorf("%s: %s = %v then %v", name, pm.name, a, b)
			}
		}
		if name == "update_churn" && runs[1]["service.patched_share"] < 0.8 {
			t.Errorf("patched share %v, want at least 0.8", runs[1]["service.patched_share"])
		}
	}
}

// TestBenchmarkJSONNamesWhatTreeloadReports keeps BENCHMARK.json, the
// workload table and the metric lists in step.
func TestBenchmarkJSONNamesWhatTreeloadReports(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in treeload", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), treeload %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in treeload", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s [%s], treeload %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in treeload", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s], treeload %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
