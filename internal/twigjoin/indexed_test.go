package twigjoin_test

import (
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/twigjoin"
	"repro/internal/workload"
)

// TestMatchIndexedMatchesPlain checks that serving the label streams (paths)
// and the label masks and rank view (twigs) from a shared index leaves the
// PathStack and twig results unchanged.
func TestMatchIndexedMatchesPlain(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 20, Regions: 3, DescriptionDepth: 2, Seed: 41})
	ix := index.New(doc)

	path, err := twigjoin.Path([]string{"item", "description", "keyword"},
		[]twigjoin.EdgeKind{twigjoin.ChildEdge, twigjoin.DescendantEdge})
	if err != nil {
		t.Fatal(err)
	}
	want, err := twigjoin.MatchPath(doc, path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := twigjoin.MatchPathIndexed(doc, path, ix)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Errorf("indexed path matches diverge: %v vs %v", got, want)
	}

	tw := &twigjoin.Twig{
		Labels: []string{"item", "name", "description", "keyword"},
		Parent: []int{-1, 0, 0, 2},
		Edge: []twigjoin.EdgeKind{twigjoin.DescendantEdge, twigjoin.ChildEdge,
			twigjoin.ChildEdge, twigjoin.DescendantEdge},
	}
	wantTw, err := twigjoin.MatchTwig(doc, tw)
	if err != nil {
		t.Fatal(err)
	}
	gotTw, err := twigjoin.MatchTwigIndexed(doc, tw, ix)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(wantTw) != fmt.Sprint(gotTw) {
		t.Errorf("indexed twig matches diverge")
	}
	if _, err := twigjoin.MatchTwigIndexed(doc, tw, ix); err != nil {
		t.Fatal(err)
	}
	if s := ix.Snapshot(); s.LabelMaskHits == 0 {
		t.Errorf("a repeated twig match should hit the label-mask cache, got %+v", s)
	}
}

// TestPathPairsFastPath: non-empty two-node paths -- attribute (secondary)
// labels included -- served from the index's label-complete streams on multi-labeled
// documents agree with the unindexed stack algorithm, and so does a branching
// twig over the same labels.
func TestPathPairsFastPath(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 16, Regions: 4, DescriptionDepth: 2, Seed: 42})
	ix := index.New(doc)
	cases := []struct {
		labels []string
		edge   twigjoin.EdgeKind
	}{
		{[]string{"item", "keyword"}, twigjoin.DescendantEdge},
		{[]string{"region", "item"}, twigjoin.ChildEdge},
		{[]string{"@name=africa", "item"}, twigjoin.ChildEdge},
		{[]string{"@id=item3", "keyword"}, twigjoin.DescendantEdge},
	}
	for _, c := range cases {
		path, err := twigjoin.Path(c.labels, []twigjoin.EdgeKind{c.edge})
		if err != nil {
			t.Fatal(err)
		}
		want, err := twigjoin.MatchPath(doc, path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := twigjoin.MatchPathIndexed(doc, path, ix)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || fmt.Sprint(want) != fmt.Sprint(got) {
			t.Errorf("%v %v: indexed matches diverge: %v vs %v", c.labels, c.edge, got, want)
		}
	}

	tw := &twigjoin.Twig{
		Labels: []string{"item", "name", "keyword"},
		Parent: []int{-1, 0, 0},
		Edge:   []twigjoin.EdgeKind{twigjoin.DescendantEdge, twigjoin.ChildEdge, twigjoin.DescendantEdge},
	}
	want, err := twigjoin.MatchTwig(doc, tw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := twigjoin.MatchTwigIndexed(doc, tw, ix)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Errorf("indexed twig matches diverge")
	}
}
