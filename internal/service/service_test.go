package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/arccons"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/mdatalog"
	"repro/internal/poolcheck"
	"repro/internal/ted"
	"repro/internal/workload"
)

// pools are the counts of every pool the package reaches.
var pools = []func() int64{bitset.Outstanding, ted.Outstanding, arccons.Outstanding, mdatalog.Outstanding}

func TestMain(m *testing.M) { poolcheck.Main(m, pools...) }

func corpusService(t *testing.T, docs int, opts ...Option) *Service {
	t.Helper()
	s := New(opts...)
	for i := 0; i < docs; i++ {
		doc := workload.SiteDocument(workload.DocSpec{Items: 20 + 5*i, Regions: 3, DescriptionDepth: 2, Seed: int64(i + 1)})
		if err := s.Add(fmt.Sprintf("doc%02d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestQueryMatchesDirectEngine(t *testing.T) {
	s := corpusService(t, 4)
	ctx := context.Background()
	const q = "//item[name]/description//keyword"
	for name := range s.Versions() {
		res, plan, err := s.Query(ctx, name, core.LangXPath, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plan == nil || plan.Language != "xpath" {
			t.Fatalf("%s: bad plan %v", name, plan)
		}
		eng, err := s.Engine(name)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := eng.XPath(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Nodes) == 0 {
			t.Fatalf("%s: query returned no nodes", name)
		}
		if !reflect.DeepEqual(fmt.Sprint(res.Nodes), fmt.Sprint(want)) {
			t.Errorf("%s: service nodes %v, direct engine %v", name, res.Nodes, want)
		}
	}
	if _, _, err := s.Query(ctx, "nosuch", core.LangXPath, q); !errors.Is(err, ErrUnknownDocument) {
		t.Errorf("unknown doc error = %v", err)
	}
}

func TestPlanCacheHitsAndEviction(t *testing.T) {
	s := corpusService(t, 1, WithPlanCacheSize(2))
	ctx := context.Background()
	queries := []string{"//item", "//keyword", "//name"}

	// Two distinct queries fit the cache: re-running them must hit.
	for i := 0; i < 2; i++ {
		for _, q := range queries[:2] {
			if _, _, err := s.Query(ctx, "doc00", core.LangXPath, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.PlanCacheMisses != 2 || st.PlanCacheHits != 2 {
		t.Fatalf("warm cache: hits=%d misses=%d, want 2 and 2", st.PlanCacheHits, st.PlanCacheMisses)
	}

	// A third query overflows the cap and evicts the LRU plan ("//item").
	if _, _, err := s.Query(ctx, "doc00", core.LangXPath, queries[2]); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.PlanCacheSize != 2 || st.PlanCacheEvictions != 1 {
		t.Fatalf("after overflow: size=%d evictions=%d, want 2 and 1", st.PlanCacheSize, st.PlanCacheEvictions)
	}

	// The evicted query recompiles (miss), still answers correctly.
	res, _, err := s.Query(ctx, "doc00", core.LangXPath, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) == 0 {
		t.Error("recompiled query returned no nodes")
	}
	if got := s.Stats().PlanCacheMisses; got != 4 {
		t.Errorf("misses=%d, want 4 (three cold + one re-compile)", got)
	}
}

// TestCachedPlanPinsNoEngine: a cached plan of every language holds no
// reference to the engines it ran on, so the engine an update swaps out and
// the engine of a removed document are both collectable while the plans stay
// cached.
func TestCachedPlanPinsNoEngine(t *testing.T) {
	s := corpusService(t, 2)
	ctx := context.Background()
	queries := []struct{ lang, text string }{
		{core.LangXPath, "//item[name]/description//keyword"},
		{core.LangCQ, "Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k)."},
		{core.LangCQ, cyclicKeywordPairs},
		{core.LangTwig, "//item[name]//keyword"},
		{core.LangDatalog, keywordReachProgram},
		{core.LangStream, "//item//keyword"},
		{core.LangSimilar, "k=3 description(keyword)"},
	}
	for _, q := range queries {
		if _, _, err := s.Query(ctx, "doc00", q.lang, q.text); err != nil {
			t.Fatalf("%s %q: %v", q.lang, q.text, err)
		}
	}
	engine := func() weak.Pointer[core.Engine] {
		eng, err := s.Engine("doc00")
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(eng)
	}
	swapped := engine()
	if _, err := s.UpdateDoc("doc00", workload.SiteDocument(workload.DocSpec{Items: 10, Regions: 2, DescriptionDepth: 2, Seed: 99})); err != nil {
		t.Fatal(err)
	}
	removed := engine()
	if !s.Remove("doc00") || s.Remove("doc00") {
		t.Fatal("Remove should succeed exactly once")
	}
	if st := s.Stats(); st.Docs != 1 || st.PlanCacheSize != len(queries) {
		t.Fatalf("after update and remove: docs=%d cached plans=%d, want 1 and %d", st.Docs, st.PlanCacheSize, len(queries))
	}
	runtime.GC()
	if swapped.Value() != nil {
		t.Error("the engine swapped out by UpdateDoc is still reachable")
	}
	if removed.Value() != nil {
		t.Error("the engine of the removed document is still reachable")
	}
	if _, _, err := s.Query(ctx, "doc00", core.LangXPath, "//item"); !errors.Is(err, ErrUnknownDocument) {
		t.Errorf("removed doc error = %v", err)
	}
	// The surviving document runs the cached plans warm.
	before := s.Stats().PlanCacheMisses
	for _, q := range queries {
		if _, _, err := s.Query(ctx, "doc01", q.lang, q.text); err != nil {
			t.Fatalf("%s %q: %v", q.lang, q.text, err)
		}
	}
	if after := s.Stats().PlanCacheMisses; after != before {
		t.Errorf("cached plans recompiled for another document: misses %d -> %d", before, after)
	}
}

func TestQueryCorpusFanOut(t *testing.T) {
	s := corpusService(t, 6, WithWorkers(4))
	ctx := context.Background()
	results := s.QueryCorpus(ctx, core.LangXPath, "//keyword")
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Doc, r.Err)
		}
		if r.Doc != fmt.Sprintf("doc%02d", i) {
			t.Errorf("results out of name order: %q at %d", r.Doc, i)
		}
		eng, err := s.Engine(r.Doc)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := eng.XPath("//keyword")
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Result.Nodes) != len(want) {
			t.Errorf("%s: fan-out %d nodes, direct %d", r.Doc, len(r.Result.Nodes), len(want))
		}
	}
	// Second fan-out is compile-free: one lookup hits the plan every document
	// runs.
	before := s.Stats()
	s.QueryCorpus(ctx, core.LangXPath, "//keyword")
	after := s.Stats()
	if after.PlanCacheMisses != before.PlanCacheMisses {
		t.Errorf("repeat fan-out recompiled: misses %d -> %d", before.PlanCacheMisses, after.PlanCacheMisses)
	}
	if after.PlanCacheHits != before.PlanCacheHits+1 {
		t.Errorf("repeat fan-out hits %d -> %d, want +1", before.PlanCacheHits, after.PlanCacheHits)
	}
}

// TestConcurrentCorpusUse drives queries, fan-outs, and corpus mutation from
// many goroutines at once; run under -race this is the service's concurrency
// contract test.
func TestConcurrentCorpusUse(t *testing.T) {
	s := corpusService(t, 8, WithWorkers(4), WithPlanCacheSize(16))
	ctx := context.Background()
	queries := []string{"//item", "//keyword", "//item[name]/description//keyword", "//name", "//region//item"}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (g + i) % 3 {
				case 0:
					r := s.QueryCorpus(ctx, core.LangXPath, queries[i%len(queries)])
					for _, dr := range r {
						if dr.Err != nil && !errors.Is(dr.Err, ErrUnknownDocument) {
							t.Errorf("corpus: %v", dr.Err)
						}
					}
				case 1:
					doc := fmt.Sprintf("doc%02d", i%8)
					if _, _, err := s.Query(ctx, doc, core.LangXPath, queries[i%len(queries)]); err != nil && !errors.Is(err, ErrUnknownDocument) {
						t.Errorf("query: %v", err)
					}
				case 2:
					name := fmt.Sprintf("extra-%d-%d", g, i)
					if err := s.Add(name, workload.RandomTree(workload.TreeSpec{Nodes: 50, Seed: int64(g*100 + i), Alphabet: []string{"a", "b"}})); err != nil {
						t.Errorf("add: %v", err)
					}
					s.Remove(name)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Errorf("corpus should be back to 8 docs, got %d", s.Len())
	}
	if st := s.Stats(); st.PlanCacheSize > 16 {
		t.Errorf("plan cache exceeded its cap: %d > 16", st.PlanCacheSize)
	}
}
