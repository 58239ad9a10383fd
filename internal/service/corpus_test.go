package service

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestPlanCacheSharedAcrossDocuments: a plan reads no document, so one query
// text fanned out over a corpus compiles once and is cached once, and later
// single-document queries of every document hit it.
func TestPlanCacheSharedAcrossDocuments(t *testing.T) {
	const docs = 32
	s := corpusService(t, docs)
	ctx := context.Background()
	for _, r := range s.QueryCorpus(ctx, core.LangXPath, "//item[name]/description//keyword") {
		if r.Err != nil || len(r.Result.Nodes) == 0 {
			t.Fatalf("%s: %d nodes, %v", r.Doc, len(r.Result.Nodes), r.Err)
		}
	}
	st := s.Stats()
	if st.PlanCacheMisses != 1 || st.PlanCacheSize != 1 {
		t.Fatalf("fan-out over %d documents: misses=%d size=%d, want 1 and 1", docs, st.PlanCacheMisses, st.PlanCacheSize)
	}
	for d := 0; d < docs; d++ {
		if _, _, err := s.Query(ctx, fmt.Sprintf("doc%02d", d), core.LangXPath, "//item[name]/description//keyword"); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.PlanCacheMisses != 1 || st.PlanCacheHits != docs {
		t.Errorf("per-document queries: misses=%d hits=%d, want 1 and %d", st.PlanCacheMisses, st.PlanCacheHits, docs)
	}
}

// TestPlanCacheCapAccounting pins the plan cache's counters exactly, across
// many documents: five texts cycled through an LRU of three miss on every
// lookup, so 60 queries are 60 misses, 57 evictions, no hits, and a cache of
// exactly its cap.
func TestPlanCacheCapAccounting(t *testing.T) {
	const capacity, docs = 3, 12
	s := corpusService(t, docs, WithPlanCacheSize(capacity))
	ctx := context.Background()
	queries := []string{"//item", "//keyword", "//name", "//description", "//region"}
	for d := 0; d < docs; d++ {
		for _, q := range queries {
			if _, _, err := s.Query(ctx, fmt.Sprintf("doc%02d", d), core.LangXPath, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	n := uint64(docs * len(queries))
	if st.PlanCacheMisses != n || st.PlanCacheHits != 0 || st.PlanCacheEvictions != n-capacity {
		t.Errorf("misses=%d hits=%d evictions=%d, want %d, 0 and %d", st.PlanCacheMisses, st.PlanCacheHits, st.PlanCacheEvictions, n, n-capacity)
	}
	if st.PlanCacheSize != capacity || st.PlanCacheCap != capacity {
		t.Errorf("size=%d cap=%d, want %d and %d", st.PlanCacheSize, st.PlanCacheCap, capacity, capacity)
	}
}

// TestPlanCacheTinyCapStillBounded covers the smallest cap: one plan is still
// a cache — a text repeated on another document hits it — and a second text
// displaces it rather than growing the cache.
func TestPlanCacheTinyCapStillBounded(t *testing.T) {
	s := corpusService(t, 3, WithPlanCacheSize(1))
	ctx := context.Background()
	for d := 0; d < 3; d++ {
		if _, _, err := s.Query(ctx, fmt.Sprintf("doc%02d", d), core.LangXPath, "//item"); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.PlanCacheMisses != 1 || st.PlanCacheHits != 2 || st.PlanCacheSize != 1 {
		t.Fatalf("one text on three documents: %+v, want 1 miss, 2 hits and 1 plan", st)
	}
	if _, _, err := s.Query(ctx, "doc00", core.LangXPath, "//keyword"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PlanCacheSize != 1 || st.PlanCacheEvictions != 1 {
		t.Errorf("a second text: size=%d evictions=%d, want 1 and 1", st.PlanCacheSize, st.PlanCacheEvictions)
	}
}

// TestPlanCacheConcurrent hammers the plan cache from concurrent compilers
// (cold misses), executors (warm hits), and updaters (document swaps on the
// corpus map) — run under -race in CI, it proves the plan cache and the
// corpus map never need each other's locks.
func TestPlanCacheConcurrent(t *testing.T) {
	const docs = 8
	s := corpusService(t, docs, WithPlanCacheSize(32))
	ctx := context.Background()
	queries := []string{"//item", "//keyword", "//name", "//item//keyword"}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				doc := fmt.Sprintf("doc%02d", (w+i)%docs)
				if _, _, err := s.Query(ctx, doc, core.LangXPath, queries[i%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("doc%02d", i%docs)
			doc := workload.SiteDocument(workload.DocSpec{Items: 15, Regions: 2, DescriptionDepth: 2, Seed: int64(100 + i)})
			if _, err := s.UpdateDoc(name, doc); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.PlanCacheSize != len(queries) {
		t.Errorf("cached plans = %d, want one per query text (%d)", st.PlanCacheSize, len(queries))
	}
	if st.Queries != 200 {
		t.Errorf("queries = %d, want 200", st.Queries)
	}
}

// TestCorpusUnderChurn: the sorted names a fan-out reads follow every Add
// and Remove.  Churners each add and remove a name of their own while
// updaters rewrite the stable documents and readers fan out: a churner's
// fan-out right after its Add must answer its document, one right after its
// Remove must not list it, and every fan-out lists each stable document
// once, in order, and only names that were ever in the corpus.
func TestCorpusUnderChurn(t *testing.T) {
	s := New(WithWorkers(2))
	stable := []string{"s0", "s1", "s2"}
	for _, name := range stable {
		if err := s.AddXML(name, "<a><b/></a>"); err != nil {
			t.Fatal(err)
		}
	}
	if versions := s.Versions(); len(versions) != 3 {
		t.Fatalf("Versions() = %v", versions)
	} else {
		delete(versions, "s0")
		versions["mutated"] = 1
		if v := s.Versions(); len(v) != 3 || v["s0"] != 1 || v["mutated"] != 0 {
			t.Fatalf("Versions() hands out the corpus's own map: %v", v)
		}
		if r := s.QueryCorpus(context.Background(), core.LangXPath, "//b"); len(r) != 3 || r[0].Doc != "s0" {
			t.Fatalf("a write to Versions()'s map reached the fan-out: %+v", r)
		}
	}

	const churners, rounds = 3, 150
	ctx := context.Background()
	known := map[string]bool{}
	for _, name := range stable {
		known[name] = true
	}
	for c := range churners {
		known[fmt.Sprintf("c%d", c)] = true
	}
	// check verifies one fan-out and returns its result for the named
	// document, nil when it is not listed.
	check := func(results []DocResult, name string) *DocResult {
		var own *DocResult
		seen := 0
		for i, r := range results {
			if !known[r.Doc] || (i > 0 && results[i-1].Doc >= r.Doc) {
				t.Errorf("fan-out lists %q out of order or unknown: %v", r.Doc, results)
				return nil
			}
			if r.Doc[0] == 's' {
				seen++
				if r.Err != nil {
					t.Errorf("stable document %s: %v", r.Doc, r.Err)
				}
			}
			if r.Doc == name {
				own = &results[i]
			}
		}
		if seen != len(stable) {
			t.Errorf("fan-out lists %d of the %d stable documents", seen, len(stable))
		}
		return own
	}

	var churn, background sync.WaitGroup
	stop := make(chan struct{})
	for c := range churners {
		churn.Add(1)
		go func() {
			defer churn.Done()
			name := fmt.Sprintf("c%d", c)
			for range rounds {
				if err := s.AddXML(name, "<a><b/><b/></a>"); err != nil {
					t.Error(err)
					return
				}
				if r := check(s.QueryCorpus(ctx, core.LangXPath, "//b"), name); r == nil || r.Err != nil || len(r.Result.Nodes) != 2 {
					t.Errorf("fan-out after Add(%s): %+v", name, r)
					return
				}
				if !s.Remove(name) {
					t.Errorf("Remove(%s) found nothing", name)
					return
				}
				if r := check(s.QueryCorpus(ctx, core.LangXPath, "//b"), name); r != nil {
					t.Errorf("fan-out after Remove(%s) lists it: %v", name, r.Err)
					return
				}
			}
		}()
	}
	background.Add(2)
	go func() { // updater
		defer background.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.UpdateDocXML(stable[i%len(stable)], fmt.Sprintf("<a><b/><c n='%d'/></a>", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // reader
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			check(s.QueryCorpus(ctx, core.LangXPath, "//b"), "")
		}
	}()
	churn.Wait()
	close(stop)
	background.Wait()
	if versions := s.Versions(); len(versions) != len(stable) {
		t.Errorf("after the churn Versions() = %v, want the stable documents", versions)
	}
}
