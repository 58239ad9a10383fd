package service

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/tree"
	"repro/internal/workload"
)

// TestAggregateRankedMerge feeds hand-built per-document k-heap outputs and
// checks the corpus-wide (distance, doc, node) merge order, each hit's
// document version, the top-k cut, and the Total/Truncated accounting.
func TestAggregateRankedMerge(t *testing.T) {
	results := []DocResult{
		{Doc: "a", Version: 1, Result: &core.Result{Hits: []core.Hit{{Node: 7, Distance: 1}, {Node: 2, Distance: 2}}}},
		{Doc: "b", Version: 2, Result: &core.Result{Hits: []core.Hit{{Node: 4, Distance: 0}, {Node: 9, Distance: 2}}}},
		{Doc: "c", Version: 3, Result: &core.Result{Hits: []core.Hit{{Node: 1, Distance: 0}}}},
	}
	agg := Aggregate(results, 0)
	want := []CorpusHit{
		{"b", 2, 4, 0}, {"c", 3, 1, 0}, {"a", 1, 7, 1}, {"a", 1, 2, 2}, {"b", 2, 9, 2},
	}
	if fmt.Sprint(agg.Hits) != fmt.Sprint(want) {
		t.Errorf("hits = %v, want %v", agg.Hits, want)
	}
	if agg.Total != 5 || agg.Truncated {
		t.Errorf("total=%d truncated=%v", agg.Total, agg.Truncated)
	}

	top3 := Aggregate(results, 3)
	if len(top3.Hits) != 3 || !top3.Truncated || top3.Total != 5 {
		t.Fatalf("limit=3: hits=%d truncated=%v total=%d", len(top3.Hits), top3.Truncated, top3.Total)
	}
	if fmt.Sprint(top3.Hits) != fmt.Sprint(want[:3]) {
		t.Errorf("top3 = %v, want %v", top3.Hits, want[:3])
	}
}

// TestQueryCorpusSimilar runs a ranked similarity query end-to-end through
// the service: per-document k-heaps merged into a corpus-wide top-k, and the
// plan cache serving the prepared pattern on re-query.
func TestQueryCorpusSimilar(t *testing.T) {
	s := New()
	docs := map[string]string{
		"one":   "r(a(b c) x(y))",
		"two":   "r(a(b) a(b c d))",
		"three": "r(z(z z))",
	}
	for name, src := range docs {
		if err := s.Add(name, tree.MustParseSexpr(src)); err != nil {
			t.Fatal(err)
		}
	}
	agg := Aggregate(s.QueryCorpus(context.Background(), core.LangSimilar, "k=2 a(b c)"), 3)
	if len(agg.Failed) != 0 {
		t.Fatalf("failures: %v", agg.Failed)
	}
	if len(agg.Hits) != 3 {
		t.Fatalf("got %d hits, want 3: %v", len(agg.Hits), agg.Hits)
	}
	if agg.Hits[0].Doc != "one" || agg.Hits[0].Distance != 0 {
		t.Fatalf("best hit = %+v, want the exact copy in doc one", agg.Hits[0])
	}
	// Per-doc k=2, three docs, limit 3: Total counts the per-doc heap
	// outputs (2+2+2 from one/two, 1... doc three has 4 subtrees all far).
	if agg.Total < 3 || !agg.Truncated {
		t.Fatalf("total=%d truncated=%v", agg.Total, agg.Truncated)
	}
	for i := 1; i < len(agg.Hits); i++ {
		a, b := agg.Hits[i-1], agg.Hits[i]
		if b.Distance < a.Distance || (b.Distance == a.Distance && (b.Doc < a.Doc || (b.Doc == a.Doc && b.Node < a.Node))) {
			t.Fatalf("hits out of order: %v", agg.Hits)
		}
	}

	// Second run must be served from the plan cache.
	before := s.Stats().PlanCacheHits
	_ = Aggregate(s.QueryCorpus(context.Background(), core.LangSimilar, "k=2 a(b c)"), 3)
	if s.Stats().PlanCacheHits <= before {
		t.Fatal("similarity plans were not cached")
	}
}

// TestSimilarSurvivesUpdate: after a document swap the cached similarity plan
// (its pattern decomposed once) answers over the new revision.
func TestSimilarSurvivesUpdate(t *testing.T) {
	s := New()
	if err := s.Add("d", tree.MustParseSexpr("r(a(b c))")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, _, err := s.Query(ctx, "d", core.LangSimilar, "k=1 a(b c)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].Distance != 0 {
		t.Fatalf("hits = %+v", res.Hits)
	}
	if _, err := s.UpdateDoc("d", tree.MustParseSexpr("r(a(b) q)")); err != nil {
		t.Fatal(err)
	}
	res, _, err = s.Query(ctx, "d", core.LangSimilar, "k=1 a(b c)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].Distance != 1 {
		t.Fatalf("post-update hits = %+v, want the a(b) subtree at distance 1", res.Hits)
	}
	if st := s.Stats(); st.PlanReprepares == 0 || st.PlanCacheMisses != 1 {
		t.Fatalf("stats = %+v, want the similarity plan carried and compiled once", st)
	}
}

// TestCorpusSimilarPlansPerDocument: the documents of one fan-out share one
// block of executions, yet each keeps its own plan, with its own execution
// time and candidate funnel, equal to what the document reports run alone.
func TestCorpusSimilarPlansPerDocument(t *testing.T) {
	s := New(WithWorkers(2))
	sizes := map[string]int{"a": 3, "b": 40}
	for name, items := range sizes {
		if err := s.Add(name, workload.SiteDocument(workload.DocSpec{Items: items, Regions: 2, DescriptionDepth: 2, Seed: 7})); err != nil {
			t.Fatal(err)
		}
	}
	const query = "k=3 description(parlist(listitem(keyword text)))"
	ctx := context.Background()
	results := s.QueryCorpus(ctx, core.LangSimilar, query)
	if len(results) != 2 || results[0].Plan == results[1].Plan {
		t.Fatalf("want two documents with a plan each: %+v", results)
	}
	for _, r := range results {
		if r.Err != nil || r.Plan == nil {
			t.Fatalf("%s: %v", r.Doc, r.Err)
		}
		eng, _ := s.Engine(r.Doc)
		f := r.Plan.Similar
		if !f.Searched || f.Candidates != uint64(eng.Document().Len()) {
			t.Errorf("%s: funnel %+v over %d nodes", r.Doc, f, eng.Document().Len())
		}
		if r.Plan.ExecDuration <= 0 {
			t.Errorf("%s: exec duration %v", r.Doc, r.Plan.ExecDuration)
		}
		_, alone, err := s.Query(ctx, r.Doc, core.LangSimilar, query)
		if err != nil {
			t.Fatal(err)
		}
		if alone.Similar != f {
			t.Errorf("%s: fan-out funnel %+v, alone %+v", r.Doc, f, alone.Similar)
		}
	}
	if results[0].Plan.Similar == results[1].Plan.Similar {
		t.Errorf("documents of %d and %d items report one funnel: %+v", sizes["a"], sizes["b"], results[0].Plan.Similar)
	}
}
