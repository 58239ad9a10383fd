package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/mdatalog"
	"repro/internal/tree"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// TestMultiLabelDifferential proves the label-complete index on a
// multi-labeled (attribute-labeled) document for every prepare route: each
// route's prepared execution must return exactly the unindexed reference
// evaluator's answers.  Under Auto every route reads label masks (which hold
// every label of a node) and the views cut from the tree, so the relational
// encoding — XASR, side relations, pair relations — is never built; the
// forced Yannakakis baseline still builds it and hits it on repeat.
func TestMultiLabelDifferential(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 14, Regions: 3, DescriptionDepth: 2, Seed: 61})
	eng := New(doc)
	if !eng.Index().MultiLabeled() {
		t.Fatal("site documents should be multi-labeled")
	}
	ctx := context.Background()

	exec := func(lang, text string) *Result {
		t.Helper()
		pq, err := eng.Prepare(lang, text)
		if err != nil {
			t.Fatalf("%s %q: prepare: %v", lang, text, err)
		}
		res, _, err := pq.Exec(ctx)
		if err != nil {
			t.Fatalf("%s %q: exec: %v", lang, text, err)
		}
		return res
	}

	t.Run("xpath", func(t *testing.T) {
		for _, q := range []string{
			"//item/name",
			"//item//keyword",
			"//region[lab() = @name=africa]/item",
			"//item[lab() = @id=item0]/description//keyword",
		} {
			got := exec(LangXPath, q)
			want := xpath.QueryNaive(xpath.MustParse(q), doc)
			if fmt.Sprint(got.Nodes) != fmt.Sprint([]tree.NodeID(want)) {
				t.Errorf("%q: indexed %v, naive %v", q, got.Nodes, want)
			}
		}
	})

	t.Run("cq", func(t *testing.T) {
		for _, q := range []string{
			"Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k).",
			"Q(i) :- Lab[region](r), Lab[@name=africa](r), Child(r, i), Lab[item](i).",
			"Q(k) :- Lab[item](i), Lab[@id=item0](i), Child+(i, k), Lab[keyword](k).",
		} {
			got := exec(LangCQ, q)
			want := cq.EvaluateNaive(cq.MustParse(q), doc)
			if !cq.AnswersEqual(got.Answers, want) {
				t.Errorf("%q: indexed answers diverge from naive search", q)
			}
		}
	})

	t.Run("cq-forced-strategies", func(t *testing.T) {
		// The same queries must agree under every forced relational strategy;
		// yannakakis and rewrite consume the pair cache directly.
		q := "Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k)."
		want := cq.EvaluateNaive(cq.MustParse(q), doc)
		for _, s := range []Strategy{Yannakakis, ArcConsistency, RewriteFirst} {
			se := New(doc, WithStrategy(s))
			pq, err := se.Prepare(LangCQ, q)
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			res, _, err := pq.Exec(ctx)
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			if !cq.AnswersEqual(res.Answers, want) {
				t.Errorf("%v: answers diverge on multi-labeled doc", s)
			}
			if s == Yannakakis {
				if _, _, err := pq.Exec(ctx); err != nil {
					t.Fatalf("%v: repeat: %v", s, err)
				}
				if st := se.Index().Snapshot(); st.XASRBuilds == 0 || st.LabelRowBuilds == 0 || st.PairBuilds == 0 || st.PairHits == 0 {
					t.Errorf("yannakakis on a multi-labeled doc must build the pair cache and hit it on repeat: %+v", st)
				}
			}
		}
	})

	t.Run("twig", func(t *testing.T) {
		for _, q := range []string{
			"//item[name]/description//keyword",
			"//region/item[quantity]",
		} {
			got := exec(LangTwig, q)
			tq, err := xpath.ToCQ(xpath.MustParse(q))
			if err != nil {
				t.Fatal(err)
			}
			want := cq.EvaluateNaive(tq, doc)
			if !cq.AnswersEqual(got.Answers, want) {
				t.Errorf("%q: twig answers diverge from naive CQ", q)
			}
		}
	})

	t.Run("datalog", func(t *testing.T) {
		prog := "P0(x) :- Lab[keyword](x).\nP0(x) :- NextSibling(x, y), P0(y).\nP(x) :- FirstChild(x, y), P0(y).\nP0(x) :- P(x).\n?- P."
		got := exec(LangDatalog, prog)
		p, err := mdatalog.Parse(prog)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mdatalog.EvaluateNaive(p, doc)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Nodes) != fmt.Sprint(want) {
			t.Errorf("datalog: grounded %v, naive %v", got.Nodes, want)
		}
	})

	t.Run("stream", func(t *testing.T) {
		for _, q := range []string{"//item//keyword", "//region/item/name"} {
			got := exec(LangStream, q)
			want := xpath.QueryNaive(xpath.MustParse(q), doc)
			if fmt.Sprint(got.Nodes) != fmt.Sprint([]tree.NodeID(want)) {
				t.Errorf("%q: stream %v, naive %v", q, got.Nodes, want)
			}
		}
	})

	t.Run("similar", func(t *testing.T) {
		q := "k=5 item(name description)"
		got := exec(LangSimilar, q)
		want, _, err := New(doc, WithStrategy(Naive)).Similar(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Hits) != fmt.Sprint(want) {
			t.Errorf("%q: pruned %v, exhaustive %v", q, got.Hits, want)
		}
	})

	// Every language has run: the default routes read masks and views only.
	st := eng.Index().Snapshot()
	if st.XASRBuilds != 0 || st.LabelRowBuilds != 0 || st.PairBuilds != 0 {
		t.Errorf("a default route built the relational encoding: %+v", st)
	}
	if st.LabelMaskBuilds == 0 || st.LabelMaskHits == 0 || st.TEDBuilds != 1 {
		t.Errorf("the default routes should share label masks and one TED view: %+v", st)
	}
}
