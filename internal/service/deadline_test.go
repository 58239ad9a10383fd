package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

const keywordReachProgram = `P0(x) :- Lab[keyword](x).
P0(x) :- NextSibling(x, y), P0(y).
P(x)  :- FirstChild(x, y), P0(y).
P0(x) :- P(x).
?- P.`

// cancelAtQuery is a context that cancels itself when asked for its error
// once the service has started its n-th query.
type cancelAtQuery struct {
	context.Context
	cancel context.CancelFunc
	s      *Service
	n      uint64
}

func (c cancelAtQuery) Err() error {
	if c.s.Stats().Queries >= c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestQueryCorpusCancelMidFanOut cancels the caller's context while a
// single-worker fan-out is in flight and checks partial-failure reporting:
// documents finished before the cancel keep their results, documents after it
// report the context error, and every document is accounted for.
func TestQueryCorpusCancelMidFanOut(t *testing.T) {
	s := New(WithWorkers(1))
	for i := 0; i < 24; i++ {
		doc := workload.SiteDocument(workload.DocSpec{Items: 400, Regions: 4, DescriptionDepth: 3, Seed: int64(i + 1)})
		if err := s.Add(fmt.Sprintf("doc%02d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel as soon as the second document's query has started: the Queries
	// counter ticks just before each Exec, and the worker is sequential, so
	// Queries == 2 proves the first document already finished (and keeps its
	// result even under the evaluators' in-loop ctx checkpoints).  The cancel
	// happens inside the fan-out, on the context's own Err call, so no
	// scheduling of a second goroutine can let the fan-out finish first.
	results := s.QueryCorpus(cancelAtQuery{ctx, cancel, s, 2}, core.LangDatalog, keywordReachProgram)
	if len(results) != 24 {
		t.Fatalf("got %d results, want 24", len(results))
	}
	var ok, cancelled int
	for _, r := range results {
		switch {
		case r.Err == nil:
			if r.Result == nil {
				t.Errorf("%s: success without result", r.Doc)
			}
			ok++
		case errors.Is(r.Err, context.Canceled):
			cancelled++
		default:
			t.Errorf("%s: unexpected error %v", r.Doc, r.Err)
		}
	}
	if ok == 0 {
		t.Error("no document completed before the cancel")
	}
	if cancelled == 0 {
		t.Error("no document observed the cancellation")
	}
	if ok+cancelled != 24 {
		t.Errorf("accounting: %d ok + %d cancelled != 24", ok, cancelled)
	}
}

// TestQueryCorpusDocTimeout verifies that WithDocTimeout threads a
// per-document deadline down into each execution: with an already-expired
// per-document budget every document fails with DeadlineExceeded even though
// the caller's context stays alive, and the failure is per-document (the
// fan-out itself still returns a full result set).
func TestQueryCorpusDocTimeout(t *testing.T) {
	s := corpusService(t, 4)
	ctx := context.Background()

	results := s.QueryCorpus(ctx, core.LangXPath, "//keyword", WithDocTimeout(time.Nanosecond))
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want DeadlineExceeded", r.Doc, r.Err)
		}
	}
	if err := ctx.Err(); err != nil {
		t.Fatalf("caller context was cancelled: %v", err)
	}

	// The per-document budget only bounds execution; the plan was compiled and
	// cached, so a sane budget immediately succeeds compile-free.
	before := s.Stats()
	results = s.QueryCorpus(ctx, core.LangXPath, "//keyword", WithDocTimeout(time.Minute))
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Doc, r.Err)
		}
	}
	if after := s.Stats(); after.PlanCacheMisses != before.PlanCacheMisses {
		t.Errorf("second fan-out recompiled: misses %d -> %d", before.PlanCacheMisses, after.PlanCacheMisses)
	}
}

// cyclicKeywordPairs is a cyclic conjunctive query: Auto sends it through the
// Theorem 5.1 rewriting, whose union of 4 acyclic disjuncts is the one
// artifact a plan reports through Clauses.
const cyclicKeywordPairs = "Q(k, l) :- Lab[item](i), Child+(i, k), Lab[keyword](k), Child+(i, l), Lab[keyword](l), Following(k, l)."

// TestWithPlanClauseCap checks plan-cache admission control: a rewritten
// disjunct union above the clause cap executes but is never cached, while
// ordinary plans keep caching normally.
func TestWithPlanClauseCap(t *testing.T) {
	s := corpusService(t, 1, WithPlanClauseCap(3))
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		res, _, err := s.Query(ctx, "doc00", core.LangCQ, cyclicKeywordPairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) == 0 {
			t.Fatal("oversize rewritten query returned no answers")
		}
	}
	st := s.Stats()
	if st.PlanCacheSkips != 2 {
		t.Errorf("skips = %d, want 2 (oversize plan compiled per call)", st.PlanCacheSkips)
	}
	if st.PlanCacheSize != 0 || st.PlanCacheHits != 0 {
		t.Errorf("oversize plan was cached: size=%d hits=%d", st.PlanCacheSize, st.PlanCacheHits)
	}

	// An ordinary query still caches and hits.
	for i := 0; i < 2; i++ {
		if _, _, err := s.Query(ctx, "doc00", core.LangXPath, "//keyword"); err != nil {
			t.Fatal(err)
		}
	}
	st = s.Stats()
	if st.PlanCacheSize != 1 || st.PlanCacheHits != 1 {
		t.Errorf("ordinary plan: size=%d hits=%d, want 1 and 1", st.PlanCacheSize, st.PlanCacheHits)
	}

	// Unconfigured services admit everything.
	s2 := corpusService(t, 1)
	if _, _, err := s2.Query(ctx, "doc00", core.LangCQ, cyclicKeywordPairs); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.PlanCacheSize != 1 || st.PlanCacheSkips != 0 {
		t.Errorf("uncapped service: size=%d skips=%d, want 1 and 0", st.PlanCacheSize, st.PlanCacheSkips)
	}
}

// TestPreparedClauses pins the artifact-size accounting the admission cap
// relies on: the rewrite route reports its disjunct count, every route whose
// compiled form does not grow with the query — datalog included, which holds
// no ground program — reports 0.
func TestPreparedClauses(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 30, Regions: 3, DescriptionDepth: 2, Seed: 7})
	eng := core.New(doc)
	pq, err := eng.Prepare(core.LangCQ, cyclicKeywordPairs)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Clauses() != 4 {
		t.Errorf("rewritten union clauses = %d, want its 4 disjuncts", pq.Clauses())
	}
	for _, q := range []struct{ lang, text string }{
		{core.LangXPath, "//keyword"},
		{core.LangDatalog, keywordReachProgram},
	} {
		px, err := eng.Prepare(q.lang, q.text)
		if err != nil {
			t.Fatal(err)
		}
		if px.Clauses() != 0 {
			t.Errorf("%s clauses = %d, want 0", q.lang, px.Clauses())
		}
	}
}
