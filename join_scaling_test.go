package repro

import (
	"context"
	"testing"

	"repro/internal/arccons"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/index"
	"repro/internal/rewrite"
	"repro/internal/tree"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// joinMixQueries are the six queries of the join_mix benchmark workload
// (bench/treeload/workload.go): three acyclic CQs, one cyclic CQ that goes
// through the rewriting, and two twigs.
var joinMixQueries = []struct{ name, lang, text string }{
	{"cq-item-description-keyword", core.LangCQ, "Q(i, k) :- Lab[item](i), Child(i, d), Lab[description](d), Child+(d, k), Lab[keyword](k)."},
	{"cq-africa-keyword", core.LangCQ, "Q(k) :- Lab[@name=africa](r), Child+(r, k), Lab[keyword](k)."},
	{"cq-item-name-mailbox", core.LangCQ, "Q(i, n) :- Lab[item](i), Child(i, n), Lab[name](n), Child(i, m), Lab[mailbox](m)."},
	{"cq-cyclic-following", core.LangCQ, "Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k), Child+(i, t), Lab[text](t), Following(k, t)."},
	{"twig-item-name-description-keyword", core.LangTwig, "//item[name]/description//keyword"},
	{"twig-region-item-mailbox-keyword", core.LangTwig, "//region//item[mailbox]//keyword"},
}

// joinMixUnion compiles a join_mix query the way core's Auto planner does:
// an acyclic CQ or a twig is one kernel program, a cyclic CQ the union of its
// rewritten disjuncts.
func joinMixUnion(tb testing.TB, lang, text string) rewrite.Union {
	tb.Helper()
	var q *cq.Query
	if lang == core.LangTwig {
		expr, err := xpath.Parse(text)
		if err != nil {
			tb.Fatal(err)
		}
		if q, err = xpath.ToCQ(expr); err != nil {
			tb.Fatal(err)
		}
	} else {
		q = cq.MustParse(text)
	}
	if c, err := arccons.Compile(q); err == nil {
		return rewrite.Union{c}
	}
	u, _, err := rewrite.Compile(q)
	if err != nil {
		tb.Fatal(err)
	}
	return u
}

// joinMixDocument is a join_mix document as the daemon holds it: generated,
// serialized, and parsed back, so NodeIDs are preorder ranks.
func joinMixDocument(items int) (*tree.Tree, *index.Index) {
	site := workload.SiteDocument(workload.DocSpec{Items: items, Regions: 6, DescriptionDepth: 2, Seed: 1})
	doc := xmldoc.MustParse(xmldoc.Serialize(site, false))
	return doc, index.New(doc)
}

func unionVisits(u rewrite.Union) (n int64) {
	for _, c := range u {
		n += c.Visits()
	}
	return n
}

// TestJoinScalingLinear pins the input + output bound of the relational
// routes on counts that do not depend on the machine: for ten times the
// items (and so ten times the answers) every join_mix query may visit, and
// allocate, at most twelve times as much.  The nested-loop enumeration and
// the path-merge twig join this kernel replaced grew ~34x and ~73x in time.
func TestJoinScalingLinear(t *testing.T) {
	ctx := context.Background()
	type counts struct {
		visits  int64
		allocs  float64
		answers int
	}
	measure := func(items int, lang, text string) counts {
		doc, ix := joinMixDocument(items)
		u := joinMixUnion(t, lang, text)
		ans, err := u.EvaluateCtx(ctx, doc, ix) // warms the masks and the view
		if err != nil {
			t.Fatal(err)
		}
		before := unionVisits(u)
		if _, err := u.EvaluateCtx(ctx, doc, ix); err != nil {
			t.Fatal(err)
		}
		visits := unionVisits(u) - before
		allocs := testing.AllocsPerRun(5, func() { u.EvaluateCtx(ctx, doc, ix) })
		return counts{visits, allocs, len(ans)}
	}
	for _, q := range joinMixQueries {
		small, big := measure(150, q.lang, q.text), measure(1500, q.lang, q.text)
		t.Logf("%-36s visits %6d -> %7d (%.1fx)  allocs %4.0f -> %4.0f (%.1fx)  answers %4d -> %5d",
			q.name, small.visits, big.visits, float64(big.visits)/float64(small.visits),
			small.allocs, big.allocs, big.allocs/small.allocs, small.answers, big.answers)
		if small.answers == 0 || big.answers < 5*small.answers {
			t.Errorf("%s: %d -> %d answers: the documents do not scale the output", q.name, small.answers, big.answers)
		}
		if big.visits > 12*small.visits {
			t.Errorf("%s: visits grew %d -> %d, more than 12x for 10x items", q.name, small.visits, big.visits)
		}
		if big.allocs > 12*small.allocs {
			t.Errorf("%s: allocations grew %.0f -> %.0f, more than 12x for 10x items", q.name, small.allocs, big.allocs)
		}
	}
}
