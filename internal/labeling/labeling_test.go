package labeling

import (
	"strings"
	"testing"

	"repro/internal/relstore"
	"repro/internal/tree"
	"repro/internal/workload"
)

// figure2 is the running example tree of Figure 2 of the paper.
func figure2() *tree.Tree { return tree.MustParseSexpr("a(b(a c) a(b d))") }

func TestXASRFigure2(t *testing.T) {
	x := BuildXASR(figure2())
	rel := x.Relation()
	if rel.Len() != 7 {
		t.Fatalf("XASR rows = %d, want 7", rel.Len())
	}
	// The exact table from Figure 2 (b): rows (pre, post, parent_pre, label).
	want := []struct {
		pre, post, parent int64
		label             string
	}{
		{1, 7, 0, "a"},
		{2, 3, 1, "b"},
		{3, 1, 2, "a"},
		{4, 2, 2, "c"},
		{5, 6, 1, "a"},
		{6, 4, 5, "b"},
		{7, 5, 5, "d"},
	}
	for i, tp := range rel.Tuples() {
		w := want[i]
		if tp[0] != w.pre || tp[1] != w.post || tp[2] != w.parent || x.Dict().String(tp[3]) != w.label {
			t.Errorf("row %d = %v (%s), want %+v", i, tp, x.Dict().String(tp[3]), w)
		}
	}
	s := x.String()
	if !strings.Contains(s, "NULL") {
		t.Errorf("String should print NULL for the root's parent_pre:\n%s", s)
	}
}

func TestNodesWithLabel(t *testing.T) {
	x := BuildXASR(figure2())
	if x.NodesWithLabel("a").Len() != 3 {
		t.Errorf("label a count = %d, want 3", x.NodesWithLabel("a").Len())
	}
	if x.NodesWithLabel("zzz").Len() != 0 {
		t.Errorf("unknown label should give an empty relation")
	}
}

// pairsFromTree materializes the axis pairs directly from the tree as a
// reference for the structural joins.
func pairSet(pairs [][2]tree.NodeID, t *tree.Tree) map[[2]int64]bool {
	out := map[[2]int64]bool{}
	for _, p := range pairs {
		out[[2]int64{int64(t.Pre(p[0])), int64(t.Pre(p[1]))}] = true
	}
	return out
}

func TestStructuralJoinAllAxesAgainstTree(t *testing.T) {
	trees := []*tree.Tree{
		figure2(),
		workload.RandomTree(workload.TreeSpec{Nodes: 60, Seed: 2, Alphabet: []string{"a", "b", "c"}}),
		workload.PathTree(20, "a"),
		workload.WideTree(20, "a"),
	}
	for ti, tr := range trees {
		x := BuildXASR(tr)
		for _, axis := range tree.AllAxes() {
			want := pairSet(tr.Pairs(axis), tr)
			for _, method := range []string{"merge", "nested"} {
				var got map[[2]int64]bool
				if method == "merge" {
					got = relToSet(x.StructuralJoin(axis, "", ""))
				} else {
					got = relToSet(x.StructuralJoinNestedLoop(axis, "", ""))
				}
				if len(got) != len(want) {
					t.Fatalf("tree %d, axis %v, %s: %d pairs, want %d", ti, axis, method, len(got), len(want))
				}
				for p := range want {
					if !got[p] {
						t.Fatalf("tree %d, axis %v, %s: missing pair %v", ti, axis, method, p)
					}
				}
			}
		}
	}
}

// relToSet converts a (from_pre, to_pre) pair relation into a set.
func relToSet(r *relstore.Relation) map[[2]int64]bool {
	out := map[[2]int64]bool{}
	for _, tp := range r.Tuples() {
		out[[2]int64{tp[0], tp[1]}] = true
	}
	return out
}

func TestStructuralJoinWithLabels(t *testing.T) {
	x := BuildXASR(figure2())
	// a//b: ancestors labeled a with descendants labeled b.
	pairs := x.StructuralJoin(tree.Descendant, "a", "b")
	// a(pre 1) has b descendants at pre 2 and 6; a(pre 5) has b at pre 6.
	want := map[[2]int64]bool{{1, 2}: true, {1, 6}: true, {5, 6}: true}
	if pairs.Len() != len(want) {
		t.Fatalf("a//b pairs = %v", pairs.Tuples())
	}
	for _, tp := range pairs.Tuples() {
		if !want[[2]int64{tp[0], tp[1]}] {
			t.Errorf("unexpected pair %v", tp)
		}
	}
	// a/b via the hash child join.
	childPairs := x.StructuralJoin(tree.Child, "a", "b")
	wantChild := map[[2]int64]bool{{1, 2}: true, {5, 6}: true}
	if childPairs.Len() != len(wantChild) {
		t.Fatalf("a/b pairs = %v", childPairs.Tuples())
	}
	// Unknown labels give empty results.
	if x.StructuralJoin(tree.Descendant, "zzz", "b").Len() != 0 {
		t.Errorf("join with unknown label should be empty")
	}
}

func TestDescendantPairsByClosureMatchesStructuralJoin(t *testing.T) {
	tr := workload.RandomTree(workload.TreeSpec{Nodes: 40, Seed: 9})
	x := BuildXASR(tr)
	fast := x.StructuralJoin(tree.Descendant, "", "")
	slow := DescendantPairsByClosure(tr)
	if fast.Len() != slow.Len() {
		t.Fatalf("structural join %d pairs, closure %d", fast.Len(), slow.Len())
	}
	set := map[[2]int64]bool{}
	for _, tp := range fast.Tuples() {
		set[[2]int64{tp[0], tp[1]}] = true
	}
	for _, tp := range slow.Tuples() {
		if !set[[2]int64{tp[0], tp[1]}] {
			t.Errorf("closure pair %v missing from structural join", tp)
		}
	}
}

func TestRegionLabels(t *testing.T) {
	tr := figure2()
	regions := RegionLabels(tr)
	// Region nesting must coincide with the Descendant axis, and
	// IsParentOf with the Child axis.
	for _, u := range tr.Nodes() {
		for _, v := range tr.Nodes() {
			if got, want := regions[u].Contains(regions[v]), tr.Holds(tree.Descendant, u, v); got != want {
				t.Errorf("Contains(%d,%d) = %v, want %v", u, v, got, want)
			}
			if got, want := regions[u].IsParentOf(regions[v]), tr.Holds(tree.Child, u, v); got != want {
				t.Errorf("IsParentOf(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
	// Levels match depths.
	for _, u := range tr.Nodes() {
		if regions[u].Level != tr.Depth(u) {
			t.Errorf("level of %d = %d, want %d", u, regions[u].Level, tr.Depth(u))
		}
	}
}

func TestStructuralPairsSoundness(t *testing.T) {
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 300, Seed: 2, Alphabet: []string{"a", "b"}})
	x := BuildXASR(doc)
	pairs, ok := x.StructuralPairs(tree.Descendant, "a", "b")
	if !ok {
		t.Fatal("Descendant should be served")
	}
	want := x.StructuralJoin(tree.Descendant, "a", "b")
	if pairs.Len() != want.Len() {
		t.Errorf("label-complete pairs %d rows, primary-label join %d", pairs.Len(), want.Len())
	}
	if _, ok := x.StructuralPairs(tree.Following, "a", "b"); ok {
		t.Errorf("axes without a fast path should be refused")
	}
}

// TestStructuralPairsMultiLabel: the label-complete sides find pairs the
// primary-label XASR join misses on a multi-labeled tree.
func TestStructuralPairsMultiLabel(t *testing.T) {
	// Root "a" with a secondary label; one child labeled only "extra"; one
	// grandchild "b".  Every structural fact below involves a secondary label.
	b := tree.NewBuilder()
	r := b.AddRoot("a", "extra")
	c := b.AddChild(r, "extra")
	b.AddChild(c, "b", "a")
	x := BuildXASR(b.MustBuild())

	pairs, ok := x.StructuralPairs(tree.Descendant, "a", "b")
	if !ok || pairs.Len() != 1 {
		t.Fatalf("Descendant(a, b) served=%v len=%d, want 1 pair", ok, pairs.Len())
	}
	// The node labeled ("b", "a") is a descendant of both "a"-labeled and
	// "extra"-labeled nodes; a primary-only join would have found none of the
	// "extra" side and only a's primary row.
	pairs, ok = x.StructuralPairs(tree.Descendant, "extra", "a")
	if !ok || pairs.Len() != 2 {
		t.Fatalf("Descendant(extra, a) served=%v len=%d, want 2 pairs (secondary labels indexed)", ok, pairs.Len())
	}
	pairs, ok = x.StructuralPairs(tree.Child, "extra", "b")
	if !ok || pairs.Len() != 1 {
		t.Fatalf("Child(extra, b) served=%v len=%d, want 1", ok, pairs.Len())
	}
	pairs, ok = x.StructuralPairs(tree.Ancestor, "b", "extra")
	if !ok || pairs.Len() != 2 {
		t.Fatalf("Ancestor(b, extra) served=%v len=%d, want 2", ok, pairs.Len())
	}
	if _, ok := x.StructuralPairs(tree.Following, "a", "b"); ok {
		t.Errorf("axes without a fast path should still be refused")
	}
	if n := x.LabelRows("extra").Len(); n != 2 {
		t.Errorf("LabelRows(extra) = %d rows, want 2 (secondary labels included)", n)
	}
}

// TestLabelRowsAgainstBruteForce cross-checks every label-restricted pair
// relation on a multi-labeled site document against a HasLabel nested loop.
func TestLabelRowsAgainstBruteForce(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 12, Regions: 3, DescriptionDepth: 2, Seed: 9})
	x := BuildXASR(doc)
	cases := []struct {
		axis     tree.Axis
		from, to string
	}{
		{tree.Descendant, "item", "keyword"},
		{tree.Descendant, "@name=africa", "item"},
		{tree.Child, "region", "item"},
		{tree.Child, "item", "@id=item0"},
		{tree.Ancestor, "keyword", "item"},
		{tree.Descendant, "", "keyword"},
		{tree.Child, "item", ""},
	}
	for _, c := range cases {
		got, ok := x.StructuralPairs(c.axis, c.from, c.to)
		if !ok {
			t.Fatalf("pairs(%v, %q, %q) refused", c.axis, c.from, c.to)
		}
		want := 0
		for _, u := range doc.Nodes() {
			if c.from != "" && !doc.HasLabel(u, c.from) {
				continue
			}
			for _, v := range doc.Nodes() {
				if c.to != "" && !doc.HasLabel(v, c.to) {
					continue
				}
				if doc.Holds(c.axis, u, v) {
					want++
				}
			}
		}
		if got.Len() != want {
			t.Errorf("pairs(%v, %q, %q) = %d rows, brute force %d", c.axis, c.from, c.to, got.Len(), want)
		}
	}
}
