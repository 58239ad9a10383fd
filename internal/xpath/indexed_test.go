package xpath_test

import (
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// TestQueryIndexedMatchesQuery checks that evaluation through a shared label
// index returns exactly the plain evaluator's answers, including under
// negation and unions (where a corrupted shared mask would show up).
func TestQueryIndexedMatchesQuery(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 25, Regions: 3, DescriptionDepth: 2, Seed: 21})
	ix := index.New(doc)
	queries := []string{
		"//item",
		"//item[name]/description//keyword",
		"//item[not(mailbox)]/name",
		"//keyword | //emailaddress",
		"//region[item[keyword] and item[not(keyword)]]",
		"/site/regions/region/item",
	}
	for _, q := range queries {
		expr := xpath.MustParse(q)
		plain := xpath.Query(expr, doc)
		// Evaluate twice through the index: the second run consumes cached
		// masks, so a mutation of a shared mask by the first run would break it.
		first := xpath.QueryIndexed(expr, doc, ix)
		second := xpath.QueryIndexed(expr, doc, ix)
		if fmt.Sprint(plain) != fmt.Sprint(first) || fmt.Sprint(plain) != fmt.Sprint(second) {
			t.Errorf("%q: plain %v, indexed %v / %v", q, plain, first, second)
		}
	}
	assertViewOnly(t, ix)
}

// assertViewOnly checks what the evaluator built of the document: label
// masks, and no label list or TED view.
func assertViewOnly(t *testing.T, ix *index.Index) {
	t.Helper()
	if s := ix.Snapshot(); s.LabelMaskBuilds == 0 || s.LabelListBuilds != 0 || s.TEDBuilds != 0 {
		t.Errorf("XPath must read label masks only, got %+v", s)
	}
}

// TestPairStepAgainstNaive stresses label-to-label steps — the ones a cached
// structural-join pair relation used to serve — on queries whose previous
// step restricts the label, multi-label (attribute) tests included, against
// the naive per-node semantics.
func TestPairStepAgainstNaive(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 18, Regions: 4, DescriptionDepth: 3, Seed: 22})
	ix := index.New(doc)
	queries := []string{
		"//item/name",
		"//region/item/description",
		"//item//keyword",
		"//region[lab() = @name=africa]/item",
		"//item[lab() = @id=item0]//keyword",
		"//parlist/listitem/keyword",
		"//item[quantity]/description//keyword",
		"//region//listitem/text",
	}
	for _, q := range queries {
		expr := xpath.MustParse(q)
		want := xpath.QueryNaive(expr, doc)
		got := xpath.QueryIndexed(expr, doc, ix)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Errorf("%q: naive %v, indexed %v", q, want, got)
		}
	}
	assertViewOnly(t, ix)
}
