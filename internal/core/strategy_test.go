package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/workload"
)

// The forced strategies, Auto first.  baseline.Yannakakis imports core, so
// the tests that force it live in this external test package.
var strategies = []core.Strategy{core.Auto, core.Naive, baseline.Yannakakis, core.ArcConsistency, core.RewriteFirst}

// TestStrategyString pins the strategy names treeq's -strategy flag takes,
// and that the zero Strategy is Auto.
func TestStrategyString(t *testing.T) {
	want := []string{"auto", "naive", "yannakakis", "arc-consistency", "rewrite"}
	for i, s := range strategies {
		if s.String() != want[i] {
			t.Errorf("strategy %d is named %q, want %q", i, s, want[i])
		}
		for _, o := range strategies[:i] {
			if s == o {
				t.Errorf("%v == %v", s, o)
			}
		}
	}
	var zero core.Strategy
	if zero != core.Auto || zero.String() != "auto" {
		t.Errorf("the zero Strategy is %q, want auto", zero)
	}
}

func TestCQStrategyAgreement(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 15, Regions: 2, DescriptionDepth: 1, Seed: 3})
	query := "Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k)."
	var results [][]cq.Answer
	for _, s := range strategies {
		e := core.New(doc, core.WithStrategy(s))
		ans, _, err := e.CQ(query)
		if err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
		results = append(results, ans)
	}
	for i := 1; i < len(results); i++ {
		if !cq.AnswersEqual(results[0], results[i]) {
			t.Errorf("strategy %v disagrees with Auto", strategies[i])
		}
	}
}

// TestForcedStrategyErrors: a cyclic query cannot be evaluated by Yannakakis
// or by arc-consistency directly.
func TestForcedStrategyErrors(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 5, Regions: 2, DescriptionDepth: 1, Seed: 3})
	for _, s := range []core.Strategy{baseline.Yannakakis, core.ArcConsistency} {
		e := core.New(doc, core.WithStrategy(s))
		if _, _, err := e.CQ("Q :- Child(x, y), Child(y, z), Child+(x, z)."); !errors.Is(err, core.ErrNoStrategy) {
			t.Errorf("forced %v on a cyclic query: error %v, want ErrNoStrategy", s, err)
		}
	}
}

// TestXASRBuiltOnce asserts that the shared XASR is materialized exactly once
// across many (including concurrent) executions that route through the
// structural-join path.
func TestXASRBuiltOnce(t *testing.T) {
	// RandomTree gives single-labeled nodes, so the XASR structural-join
	// shortcut is sound and the forced yannakakis route uses it.
	e := core.New(workload.RandomTree(workload.TreeSpec{Nodes: 300, Seed: 12, Alphabet: []string{"a", "b", "c"}}),
		core.WithStrategy(baseline.Yannakakis))
	pq, err := e.Prepare(core.LangCQ, "Q(x, y) :- Lab[a](x), Child+(x, y), Lab[b](y).")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, _, err := pq.Exec(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	stats := e.Index().Snapshot()
	if stats.XASRBuilds != 1 {
		t.Errorf("XASR built %d times, want exactly 1", stats.XASRBuilds)
	}
	if stats.PairBuilds == 0 {
		t.Errorf("structural-join pairs were never cached (the XASR path did not run)")
	}
	if stats.PairHits == 0 {
		t.Errorf("repeated executions should hit the pair cache, got %+v", stats)
	}
}
