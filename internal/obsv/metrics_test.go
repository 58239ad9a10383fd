package obsv

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterVecExposition(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("treeqd_test_requests_total", "Requests handled.", "handler", "code")
	cv.With("query", "200").Add(3)
	cv.With("query", "429").Inc()
	cv.With("docs", "200").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP treeqd_test_requests_total Requests handled.",
		"# TYPE treeqd_test_requests_total counter",
		`treeqd_test_requests_total{handler="query",code="200"} 3`,
		`treeqd_test_requests_total{handler="query",code="429"} 1`,
		`treeqd_test_requests_total{handler="docs",code="200"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidateExposition(out); err != nil {
		t.Errorf("exposition does not validate: %v", err)
	}
}

// TestParseExpositionHelp: a parsed family's Help is the text it was
// registered with, escapes undone.
func TestParseExpositionHelp(t *testing.T) {
	r := NewRegistry()
	const help = `Requests handled, per C:\ drive` + "\nand line."
	r.NewCounterVec("treeqd_test_requests_total", help)
	r.RegisterFunc("treeqd_test_gauge", TypeGauge, "A derived gauge.", nil, func(emit Emit) { emit(1) })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := fams["treeqd_test_requests_total"].Help; got != help {
		t.Errorf("Help = %q, want %q", got, help)
	}
	if got := fams["treeqd_test_gauge"].Help; got != "A derived gauge." {
		t.Errorf("Help = %q, want %q", got, "A derived gauge.")
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	hv := r.NewHistogramVec("treeqd_test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1}, "route")
	h := hv.With("query")
	h.Observe(0.005) // le=0.01
	h.Observe(0.005)
	h.Observe(0.05) // le=0.1
	h.Observe(5)    // +Inf
	h.ObserveDuration(500 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`treeqd_test_latency_seconds_bucket{route="query",le="0.01"} 2`,
		`treeqd_test_latency_seconds_bucket{route="query",le="0.1"} 3`,
		`treeqd_test_latency_seconds_bucket{route="query",le="1"} 4`,
		`treeqd_test_latency_seconds_bucket{route="query",le="+Inf"} 5`,
		`treeqd_test_latency_seconds_count{route="query"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	fams, err := ParseExposition(out)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sum := fams["treeqd_test_latency_seconds"].Samples[`treeqd_test_latency_seconds_sum{route="query"}`]
	if math.Abs(sum-5.56) > 1e-9 {
		t.Errorf("sum = %v, want 5.56", sum)
	}
}

func TestRegisterFuncAndOnScrape(t *testing.T) {
	r := NewRegistry()
	snapshots := 0
	val := 0.0
	r.OnScrape(func() { snapshots++; val = 42 })
	r.RegisterFunc("treeqd_test_gauge", TypeGauge, "A derived gauge.", []string{"pool"}, func(emit Emit) {
		emit(val, "0")
		emit(val+1, "1")
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if snapshots != 1 {
		t.Errorf("OnScrape ran %d times, want 1", snapshots)
	}
	out := b.String()
	if !strings.Contains(out, `treeqd_test_gauge{pool="0"} 42`) || !strings.Contains(out, `treeqd_test_gauge{pool="1"} 43`) {
		t.Errorf("gauge func samples missing:\n%s", out)
	}
	if err := ValidateExposition(out); err != nil {
		t.Errorf("exposition does not validate: %v", err)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	cv := r.NewCounterVec("treeqd_x_total", "x", "lang")
	cv.With("a").Inc() // must not panic
	hv := r.NewHistogramVec("treeqd_y_seconds", "y", DurationBuckets, "lang")
	hv.With("a").Observe(1)
	r.RegisterFunc("treeqd_z", TypeGauge, "z", nil, nil)
	r.OnScrape(nil)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterRefusesBadNames: a family that breaks a naming rule panics at
// registration, with a message naming the family and the rule.
func TestRegisterRefusesBadNames(t *testing.T) {
	cases := []struct {
		rule     string
		register func(r *Registry)
	}{
		{"treeqd_ prefix", func(r *Registry) { r.NewCounterVec("http_requests_total", "Requests.") }},
		{"must end in _total", func(r *Registry) { r.NewCounterVec("treeqd_requests", "Requests.") }},
		{"_total suffix on a gauge", func(r *Registry) {
			r.RegisterFunc("treeqd_pool_size_total", TypeGauge, "Pool size.", nil, nil)
		}},
		{"_total suffix on a histogram", func(r *Registry) {
			r.NewHistogramVec("treeqd_wait_total", "Wait.", DurationBuckets)
		}},
		{"empty help", func(r *Registry) { r.NewHistogramVec("treeqd_wait_seconds", "", DurationBuckets) }},
		{`label "doc"`, func(r *Registry) { r.NewCounterVec("treeqd_doc_queries_total", "Queries.", "doc") }},
		{"4 labels", func(r *Registry) {
			r.NewCounterVec("treeqd_wide_total", "Too wide.", "lang", "route", "outcome", "mode")
		}},
		{"invalid metric name", func(r *Registry) { r.NewCounterVec("treeqd-requests-total", "Requests.") }},
		{"duplicate", func(r *Registry) {
			r.NewCounterVec("treeqd_requests_total", "Requests.")
			r.NewCounterVec("treeqd_requests_total", "Requests.")
		}},
	}
	for _, c := range cases {
		t.Run(c.rule, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "obsv: metric family") || !strings.Contains(msg, c.rule) {
					t.Errorf("panic %q, want one naming the family and %q", msg, c.rule)
				}
			}()
			c.register(NewRegistry())
		})
	}
}

func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("treeqd_c_total", "c", "lang")
	hv := r.NewHistogramVec("treeqd_h_seconds", "h", DurationBuckets, "lang")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%2))
			for {
				select {
				case <-stop:
					return
				default:
				}
				cv.With(lbl).Inc()
				hv.With(lbl).Observe(float64(w) * 1e-6)
			}
		}(w)
	}
	prevCount := -1.0
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseExposition(b.String())
		if err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		// Counters are monotone across scrapes.
		c := fams["treeqd_c_total"].Samples[`treeqd_c_total{lang="a"}`]
		if c < prevCount {
			t.Fatalf("counter went backwards: %v -> %v", prevCount, c)
		}
		prevCount = c
	}
	close(stop)
	wg.Wait()
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":  "foo_total 1\n",
		"TYPE without HELP":    "# TYPE foo_total counter\nfoo_total 1\n",
		"bad metric name":      "# HELP 1foo x\n# TYPE 1foo counter\n1foo 1\n",
		"bad value":            "# HELP foo x\n# TYPE foo gauge\nfoo abc\n",
		"unterminated labels":  "# HELP foo x\n# TYPE foo gauge\nfoo{l=\"a\" 1\n",
		"duplicate sample":     "# HELP foo x\n# TYPE foo gauge\nfoo 1\nfoo 2\n",
		"histogram without le": "# HELP h x\n# TYPE h histogram\nh_bucket{l=\"a\"} 1\nh_count{l=\"a\"} 1\n",
		"non-cumulative histogram": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"torn histogram count": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
	}
	for name, payload := range cases {
		if err := ValidateExposition(payload); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestTraceSpansAndContext(t *testing.T) {
	rc := new(RequestContext)
	rc.Init(context.Background(), "deadbeef01234567")
	defer rc.End()
	tr := rc.Trace()
	type key struct{}
	if TraceFrom(rc) != tr || TraceFrom(context.WithValue(rc, key{}, 1)) != tr {
		t.Fatal("TraceFrom does not find the request's trace, directly or through a derived context")
	}
	if TraceFrom(context.Background()) != nil {
		t.Fatal("TraceFrom on an empty context should be nil")
	}
	if tr.ID() != "deadbeef01234567" {
		t.Fatalf("ID() = %q", tr.ID())
	}
	if route, _, hash := tr.Query(); route != "" || hash != "" {
		t.Fatal("Query() before SetQuery is not empty")
	}
	// Spans past the inline array are kept, in order.
	for i := 0; i < inlineSpans; i++ {
		tr.Observe("gate", time.Duration(i))
	}
	tr.Observe("plan", 2*time.Millisecond)
	tr.Observe("exec", 5*time.Millisecond)
	tr.SetQuery("query", "xpath", "//a")
	tr.SetDocs(3)
	spans := tr.Spans()
	if n := len(spans); n != inlineSpans+2 || spans[n-2].Name != "plan" || spans[n-1].Name != "exec" || spans[1].Duration != 1 {
		t.Fatalf("spans = %v", spans)
	}
	route, lang, hash := tr.Query()
	if route != "query" || lang != "xpath" || hash != QueryHash("//a") {
		t.Fatalf("Query() = %q %q %q", route, lang, hash)
	}
	if tr.Docs() != 3 {
		t.Fatalf("Docs() = %d", tr.Docs())
	}
	// Nil traces no-op everywhere.
	var nilTr *Trace
	nilTr.Observe("x", time.Second)
	nilTr.SetQuery("a", "b", "c")
	nilTr.SetDocs(1)
	if nilTr.ID() != "" || nilTr.Spans() != nil || nilTr.Docs() != 0 {
		t.Fatal("nil trace must be inert")
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := string(AppendRequestID(nil))
		if len(id) != 16 {
			t.Fatalf("request id %q not 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}
}
