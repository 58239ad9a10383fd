package yannakakis_test

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/index"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

// TestEvaluateIndexedMatchesEvaluate checks the materialization over the
// index's label lists against the plain evaluator, on both a single-labeled
// tree and a multi-labeled document.
func TestEvaluateIndexedMatchesEvaluate(t *testing.T) {
	queries := []string{
		"Q(x, y) :- Lab[a](x), Child+(x, y), Lab[b](y).",
		"Q(x, y) :- Lab[a](x), Child(x, y), Lab[b](y).",
		"Q(y) :- Lab[a](x), Child+(x, y).",
		"Q(x) :- Lab[a](x), Following(x, y), Lab[c](y).",
		"Q :- Lab[a](x), Child+(x, y), Lab[c](y).",
	}
	single := workload.RandomTree(workload.TreeSpec{Nodes: 250, Seed: 31, Alphabet: []string{"a", "b", "c"}})
	site := workload.SiteDocument(workload.DocSpec{Items: 15, Regions: 2, DescriptionDepth: 2, Seed: 32})
	siteQueries := []string{
		"Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k).",
		"Q(i) :- Lab[item](i), Child(i, n), Lab[name](n).",
		// Attribute labels are secondary labels: the lists must cover them.
		"Q(i) :- Lab[region](r), Lab[@name=africa](r), Child(r, i), Lab[item](i).",
		"Q(k) :- Lab[item](i), Lab[@id=item0](i), Child+(i, k), Lab[keyword](k).",
	}
	ix := index.New(single)
	for _, qs := range queries {
		q := cq.MustParse(qs)
		want, err := yannakakis.Evaluate(q, single)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		got, err := yannakakis.EvaluateIndexed(q, single, ix)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if !cq.AnswersEqual(want, got) {
			t.Errorf("%s: indexed answers diverge", qs)
		}
	}
	if ix.Snapshot().LabelListBuilds == 0 {
		t.Errorf("no label list was served from the index on a single-labeled tree")
	}

	six := index.New(site)
	for _, qs := range siteQueries {
		q := cq.MustParse(qs)
		want, err := yannakakis.Evaluate(q, site)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		got, err := yannakakis.EvaluateIndexed(q, site, six)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if !cq.AnswersEqual(want, got) {
			t.Errorf("%s: indexed answers diverge on multi-labeled doc", qs)
		}
	}
	if six.Snapshot().LabelListBuilds == 0 {
		t.Errorf("no label list was served from the index on a multi-labeled document")
	}
}
