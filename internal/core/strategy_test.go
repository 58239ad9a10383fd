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

// TestYannakakisConcurrentExecs runs the forced Yannakakis baseline from
// many goroutines over one engine: every execution gives the naive answer,
// and the engine's index builds the one label list it reads (x's
// candidates) once.
func TestYannakakisConcurrentExecs(t *testing.T) {
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 300, Seed: 12, Alphabet: []string{"a", "b", "c"}})
	e := core.New(doc, core.WithStrategy(baseline.Yannakakis))
	const q = "Q(x, y) :- Lab[a](x), Child+(x, y), Lab[b](y)."
	pq, err := e.Prepare(core.LangCQ, q)
	if err != nil {
		t.Fatal(err)
	}
	want := cq.EvaluateNaive(cq.MustParse(q), doc)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, _, err := pq.Exec(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if !cq.AnswersEqual(res.Answers, want) {
					t.Error("concurrent yannakakis answers diverge from naive search")
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := e.Index().Snapshot(); s.LabelListBuilds != 1 || s.LabelListHits != 79 {
		t.Errorf("want one list build and 79 hits over 80 executions, got %+v", s)
	}
}
