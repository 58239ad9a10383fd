package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
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
// every label of a node) and the views cut from the tree; the forced
// strategies must agree with them.
func TestMultiLabelDifferential(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 14, Regions: 3, DescriptionDepth: 2, Seed: 61})
	eng := core.New(doc)
	if !eng.Index().MultiLabeled() {
		t.Fatal("site documents should be multi-labeled")
	}
	ctx := context.Background()

	exec := func(lang, text string) *core.Result {
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
			got := exec(core.LangXPath, q)
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
			got := exec(core.LangCQ, q)
			want := cq.EvaluateNaive(cq.MustParse(q), doc)
			if !cq.AnswersEqual(got.Answers, want) {
				t.Errorf("%q: indexed answers diverge from naive search", q)
			}
		}
	})

	t.Run("cq-forced-strategies", func(t *testing.T) {
		// The same queries must agree under every forced relational strategy.
		q := "Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k)."
		want := cq.EvaluateNaive(cq.MustParse(q), doc)
		for _, s := range []core.Strategy{baseline.Yannakakis, core.ArcConsistency, core.RewriteFirst} {
			se := core.New(doc, core.WithStrategy(s))
			pq, err := se.Prepare(core.LangCQ, q)
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
		}
	})

	t.Run("twig", func(t *testing.T) {
		for _, q := range []string{
			"//item[name]/description//keyword",
			"//region/item[quantity]",
		} {
			got := exec(core.LangTwig, q)
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
		got := exec(core.LangDatalog, prog)
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
			got := exec(core.LangStream, q)
			want := xpath.QueryNaive(xpath.MustParse(q), doc)
			if fmt.Sprint(got.Nodes) != fmt.Sprint([]tree.NodeID(want)) {
				t.Errorf("%q: stream %v, naive %v", q, got.Nodes, want)
			}
		}
		// Documents whose nodes carry a second label from the queries'
		// alphabet: every label of a node passes a step test.
		queries := []string{
			"//a", "/a", "/*", "//a/b", "//a//b/c", "/a/b//c", "//*/c", "//a//*",
			"/a/b/c", "//b//c", "//a/*/b", "/a//*/c",
			"//a/descendant-or-self::a", "//b/descendant-or-self::*/descendant-or-self::b",
		}
		for seed := int64(0); seed < 4; seed++ {
			sd := secondaryLabelDoc(120, seed, seed%2 == 1)
			se := core.New(sd)
			for _, q := range queries {
				pq, err := se.Prepare(core.LangStream, q)
				if err != nil {
					t.Fatalf("%q: prepare: %v", q, err)
				}
				res, _, err := pq.Exec(ctx)
				if err != nil {
					t.Fatalf("%q: exec: %v", q, err)
				}
				if want := xpath.QueryNaive(xpath.MustParse(q), sd); fmt.Sprint(res.Nodes) != fmt.Sprint([]tree.NodeID(want)) {
					t.Errorf("seed %d %q: stream %v, naive %v", seed, q, res.Nodes, want)
				}
			}
		}
	})

	t.Run("similar", func(t *testing.T) {
		q := "k=5 item(name description)"
		got := exec(core.LangSimilar, q)
		want, _, err := core.New(doc, core.WithStrategy(core.Naive)).Similar(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Hits) != fmt.Sprint(want) {
			t.Errorf("%q: pruned %v, exhaustive %v", q, got.Hits, want)
		}
	})

	// Every language has run: the default routes share masks and views.
	st := eng.Index().Snapshot()
	if st.LabelMaskBuilds == 0 || st.LabelMaskHits == 0 || st.TEDBuilds != 1 {
		t.Errorf("the default routes should share label masks and one TED view: %+v", st)
	}
}

// secondaryLabelDoc builds a random document over element names a, b, c and x
// in which some nodes carry an "@id=..." attribute label and some a second
// label from a, b and c.  With scramble, children are attached to random
// earlier nodes, out of document order; otherwise along the rightmost path.
func secondaryLabelDoc(nodes int, seed int64, scramble bool) *tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	b := tree.NewBuilder()
	path := []tree.NodeID{b.AddRoot("a")}
	for i := 1; i < nodes; i++ {
		parent := tree.NodeID(rng.Intn(i))
		if !scramble {
			path = path[:1+rng.Intn(len(path))]
			parent = path[len(path)-1]
		}
		id := b.AddChild(parent, string("abcx"[rng.Intn(4)]))
		path = append(path, id)
		if rng.Intn(3) == 0 {
			b.AddLabel(id, fmt.Sprintf("@id=%d", rng.Intn(5)))
		}
		if rng.Intn(4) == 0 {
			b.AddLabel(id, string(rune('a'+rng.Intn(3))))
		}
	}
	return b.MustBuild()
}

// TestMultiLabelledNodePassesEveryLabel: a node is tested by every label it
// carries, on the stream route as on the XPath route — //c on a(b+c) selects
// the b+c node, though its element name is b.
func TestMultiLabelledNodePassesEveryLabel(t *testing.T) {
	e := core.New(tree.MustParseSexpr("a(b+c)"))
	for _, lang := range []string{core.LangStream, core.LangXPath} {
		pq, err := e.Prepare(lang, "//c")
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := pq.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Nodes) != "[1]" {
			t.Errorf("%s //c on a(b+c): %v, want [1]", lang, res.Nodes)
		}
	}
}
