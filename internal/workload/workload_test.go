package workload

import (
	"testing"

	"repro/internal/tree"
)

func TestRandomTreeSizeAndValidity(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 1000} {
		tr := RandomTree(TreeSpec{Nodes: n, Seed: 1})
		if tr.Len() != n {
			t.Errorf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("n=%d: Validate: %v", n, err)
		}
	}
	// Degenerate spec values are clamped.
	if tr := RandomTree(TreeSpec{Nodes: 0}); tr.Len() != 1 {
		t.Errorf("Nodes=0 should produce a single node")
	}
}

func TestRandomTreeDeterminism(t *testing.T) {
	a := RandomTree(TreeSpec{Nodes: 200, Seed: 7})
	b := RandomTree(TreeSpec{Nodes: 200, Seed: 7})
	c := RandomTree(TreeSpec{Nodes: 200, Seed: 8})
	if !tree.Equal(a, b) {
		t.Errorf("same seed produced different trees")
	}
	if tree.Equal(a, c) {
		t.Errorf("different seeds produced identical trees (unlikely)")
	}
}

func TestRandomTreeConstraints(t *testing.T) {
	tr := RandomTree(TreeSpec{Nodes: 500, MaxFanout: 3, MaxDepth: 8, Seed: 3})
	for _, n := range tr.Nodes() {
		if tr.NumChildren(n) > 3 {
			t.Errorf("node %d has fanout %d > 3", n, tr.NumChildren(n))
		}
		if tr.Depth(n) >= 8 {
			t.Errorf("node %d has depth %d >= 8", n, tr.Depth(n))
		}
	}
}

func TestRandomTreeAlphabetAndSkew(t *testing.T) {
	tr := RandomTree(TreeSpec{Nodes: 300, Alphabet: []string{"x", "y"}, Seed: 5})
	for _, l := range tr.LabelAlphabet() {
		if l != "x" && l != "y" {
			t.Errorf("unexpected label %q", l)
		}
	}
	skewed := RandomTree(TreeSpec{Nodes: 2000, Alphabet: []string{"a", "b", "c", "d"}, Seed: 5, LabelSkew: 1.5})
	counts := map[string]int{}
	for _, n := range skewed.Nodes() {
		counts[skewed.Label(n)]++
	}
	if counts["a"] <= counts["d"] {
		t.Errorf("Zipf skew should make 'a' more common than 'd': %v", counts)
	}
}

func TestPathAndWideTree(t *testing.T) {
	p := PathTree(100, "a")
	if p.Len() != 100 || p.Height() != 100 {
		t.Errorf("PathTree: len %d height %d", p.Len(), p.Height())
	}
	w := WideTree(100, "a")
	if w.Len() != 100 || w.Height() != 2 {
		t.Errorf("WideTree: len %d height %d", w.Len(), w.Height())
	}
	if PathTree(0, "a").Len() != 1 || WideTree(-1, "a").Len() != 1 {
		t.Errorf("degenerate sizes should clamp to 1")
	}
}

func TestCompleteTree(t *testing.T) {
	tr := CompleteTree(2, 4, []string{"l0", "l1", "l2", "l3"})
	if tr.Len() != 15 {
		t.Errorf("complete binary tree of depth 4 has %d nodes, want 15", tr.Len())
	}
	if tr.Height() != 4 {
		t.Errorf("Height = %d", tr.Height())
	}
	if tr.Label(tr.Root()) != "l0" {
		t.Errorf("root label = %q", tr.Label(tr.Root()))
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if got := CompleteTree(0, 0, nil); got.Len() != 1 {
		t.Errorf("degenerate CompleteTree should have 1 node")
	}
}

func TestSiteDocument(t *testing.T) {
	doc := SiteDocument(DocSpec{Items: 50, Regions: 3, DescriptionDepth: 2, Seed: 11})
	if err := doc.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if doc.Label(doc.Root()) != "site" {
		t.Errorf("root label = %q", doc.Label(doc.Root()))
	}
	items := doc.NodesWithLabel("item")
	if len(items) != 50 {
		t.Errorf("items = %d, want 50", len(items))
	}
	if len(doc.NodesWithLabel("region")) != 3 {
		t.Errorf("regions = %d, want 3", len(doc.NodesWithLabel("region")))
	}
	if len(doc.NodesWithLabel("keyword")) != 50*2 {
		t.Errorf("keywords = %d, want 100", len(doc.NodesWithLabel("keyword")))
	}
	// Every item has a description with a nested parlist.
	for _, it := range items {
		hasDesc := false
		for _, c := range doc.Children(it) {
			if doc.Label(c) == "description" {
				hasDesc = true
			}
		}
		if !hasDesc {
			t.Errorf("item %d has no description", it)
		}
	}
	// Determinism.
	doc2 := SiteDocument(DocSpec{Items: 50, Regions: 3, DescriptionDepth: 2, Seed: 11})
	if !tree.Equal(doc, doc2) {
		t.Errorf("SiteDocument is not deterministic")
	}
	// Degenerate spec.
	small := SiteDocument(DocSpec{})
	if small.Len() == 0 {
		t.Errorf("degenerate SiteDocument should still build")
	}
}
