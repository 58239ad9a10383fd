package core_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestResultOrderContract pins the order every route gives its Result, which
// the corpus aggregation merges by concatenation: Nodes ascending (document
// order) without duplicates, Answers in lexicographic order without
// duplicates.  It runs the benchmark's join queries (CQs and twigs) and its
// scan queries (XPath, datalog, streaming) under Auto and every forced
// strategy; a strategy that cannot evaluate a query is skipped.
func TestResultOrderContract(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 30, Regions: 3, DescriptionDepth: 2, Seed: 5})
	eng := core.New(doc)
	queries := []struct{ lang, text string }{
		{core.LangCQ, "Q(i, k) :- Lab[item](i), Child(i, d), Lab[description](d), Child+(d, k), Lab[keyword](k)."},
		{core.LangCQ, "Q(k) :- Lab[@name=africa](r), Child+(r, k), Lab[keyword](k)."},
		{core.LangCQ, "Q(i, n) :- Lab[item](i), Child(i, n), Lab[name](n), Child(i, m), Lab[mailbox](m)."},
		{core.LangCQ, "Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k), Child+(i, t), Lab[text](t), Following(k, t)."},
		{core.LangCQ, "Q :- Lab[item](i), Child(i, m), Lab[mailbox](m)."},
		{core.LangTwig, "//item[name]/description//keyword"},
		{core.LangTwig, "//region//item[mailbox]//keyword"},
		{core.LangXPath, "//item[name]/description//keyword"},
		{core.LangXPath, "//item[not(mailbox)]/name"},
		{core.LangDatalog, "P0(x) :- Lab[keyword](x).\nP0(x) :- NextSibling(x, y), P0(y).\nP(x) :- FirstChild(x, y), P0(y).\nP0(x) :- P(x).\n?- P."},
		{core.LangStream, "//item//keyword"},
		{core.LangStream, "//region/item/name"},
	}
	for _, q := range queries {
		for _, s := range strategies {
			c, err := core.Compile(q.lang, q.text, core.WithStrategy(s))
			if errors.Is(err, core.ErrNoStrategy) {
				continue
			}
			if err != nil {
				t.Fatalf("%s %q under %v: compile: %v", q.lang, q.text, s, err)
			}
			res, _, err := c.Exec(context.Background(), eng)
			if errors.Is(err, core.ErrNoStrategy) {
				continue
			}
			if err != nil {
				t.Fatalf("%s %q under %v: exec: %v", q.lang, q.text, s, err)
			}
			if len(res.Nodes)+len(res.Answers) == 0 {
				t.Errorf("%s %q under %v: no matches; the query should select something", q.lang, q.text, s)
			}
			for i := 1; i < len(res.Nodes); i++ {
				if res.Nodes[i-1] >= res.Nodes[i] {
					t.Errorf("%s %q under %v: nodes %d, %d at %d not strictly ascending", q.lang, q.text, s, res.Nodes[i-1], res.Nodes[i], i)
					break
				}
			}
			for i := 1; i < len(res.Answers); i++ {
				if slices.Compare(res.Answers[i-1], res.Answers[i]) >= 0 {
					t.Errorf("%s %q under %v: answers %v, %v at %d not strictly ascending", q.lang, q.text, s, res.Answers[i-1], res.Answers[i], i)
					break
				}
			}
		}
	}
}
