package ted

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/poolcheck"
	"repro/internal/tree"
	"repro/internal/workload"
)

func TestMain(m *testing.M) { poolcheck.Main(m, Outstanding) }

// bruteForestDist is the textbook recursive forest edit distance, exponential
// and obviously correct: forests are slices of root nodes, the rightmost tree
// is either deleted (children splice into the forest), inserted, or matched
// (costing the distance between the two child forests plus rename).
func bruteForestDist(t1 *tree.Tree, f1 []tree.NodeID, t2 *tree.Tree, f2 []tree.NodeID) int {
	if len(f1) == 0 && len(f2) == 0 {
		return 0
	}
	if len(f1) == 0 {
		n := 0
		for _, v := range f2 {
			n += t2.SubtreeSize(v)
		}
		return n
	}
	if len(f2) == 0 {
		n := 0
		for _, v := range f1 {
			n += t1.SubtreeSize(v)
		}
		return n
	}
	v := f1[len(f1)-1]
	w := f2[len(f2)-1]
	spliceV := append(append([]tree.NodeID{}, f1[:len(f1)-1]...), t1.Children(v)...)
	spliceW := append(append([]tree.NodeID{}, f2[:len(f2)-1]...), t2.Children(w)...)
	best := bruteForestDist(t1, spliceV, t2, f2) + 1
	if d := bruteForestDist(t1, f1, t2, spliceW) + 1; d < best {
		best = d
	}
	rename := 1
	if t1.Label(v) == t2.Label(w) {
		rename = 0
	}
	match := bruteForestDist(t1, f1[:len(f1)-1], t2, f2[:len(f2)-1]) +
		bruteForestDist(t1, t1.Children(v), t2, t2.Children(w)) + rename
	if match < best {
		best = match
	}
	return best
}

func bruteTED(a, b *tree.Tree) int {
	return bruteForestDist(a, []tree.NodeID{a.Root()}, b, []tree.NodeID{b.Root()})
}

func TestDistanceKnownCases(t *testing.T) {
	cases := []struct {
		a, b string
	}{
		{"a", "a"},
		{"a", "b"},
		{"a", "a(b)"},
		{"a(b c)", "a(b c)"},
		{"a(b c)", "a(c b)"},
		{"a(b(c))", "a(b c)"},
		{"f(d(a c(b)) e)", "f(c(d(a b)) e)"},
	}
	for _, c := range cases {
		ta, tb := tree.MustParseSexpr(c.a), tree.MustParseSexpr(c.b)
		want := bruteTED(ta, tb)
		if got := DistanceTrees(ta, tb); got != want {
			t.Errorf("Distance(%q, %q) = %d, brute force says %d", c.a, c.b, got, want)
		}
	}
	// Pin the classic example's absolute value too.
	ta := tree.MustParseSexpr("f(d(a c(b)) e)")
	tb := tree.MustParseSexpr("f(c(d(a b)) e)")
	if got := DistanceTrees(ta, tb); got != 2 {
		t.Errorf("Zhang–Shasha example: got %d, want 2", got)
	}
}

// TestDistancePropertyVsBruteForce cross-checks the keyroots kernel against
// the brute-force recursion on random small trees from the workload
// generator (the library behind cmd/treegen).
func TestDistancePropertyVsBruteForce(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		a := workload.RandomTree(workload.TreeSpec{Nodes: 2 + int(seed%7), Seed: seed, Alphabet: []string{"a", "b", "c"}})
		b := workload.RandomTree(workload.TreeSpec{Nodes: 2 + int((seed*3)%8), Seed: seed + 1000, Alphabet: []string{"a", "b", "c"}})
		want := bruteTED(a, b)
		if got := DistanceTrees(a, b); got != want {
			t.Fatalf("seed %d: kernel %d != brute force %d\n a=%s\n b=%s", seed, got, want, a, b)
		}
	}
}

// TestDistanceMetricProperties: identity, symmetry, and triangle inequality
// on a fixed family of small trees.
func TestDistanceMetricProperties(t *testing.T) {
	exprs := []string{"a", "a(b)", "a(b c)", "b(a(c) c)", "c(c(c))", "a(b(c d) e)"}
	trees := make([]*tree.Tree, len(exprs))
	for i, e := range exprs {
		trees[i] = tree.MustParseSexpr(e)
	}
	for i, ti := range trees {
		if d := DistanceTrees(ti, ti); d != 0 {
			t.Errorf("d(%s,%s) = %d, want 0", exprs[i], exprs[i], d)
		}
		for j, tj := range trees {
			dij := DistanceTrees(ti, tj)
			dji := DistanceTrees(tj, ti)
			if dij != dji {
				t.Errorf("asymmetric: d(%s,%s)=%d d(%s,%s)=%d", exprs[i], exprs[j], dij, exprs[j], exprs[i], dji)
			}
			for _, tk := range trees {
				if dik, dkj := DistanceTrees(ti, tk), DistanceTrees(tk, tj); dij > dik+dkj {
					t.Errorf("triangle violated: d(%s,%s)=%d > %d+%d", exprs[i], exprs[j], dij, dik, dkj)
				}
			}
		}
	}
}

// TestDocFromTree checks the kernel on the tree in place, on the
// property-test corpus (random trees, built out of document order): Distance
// against every subtree, projected from the document's own columns, equals
// DistanceTrees against that subtree as a tree of its own.
func TestDocFromTree(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		pat := workload.RandomTree(workload.TreeSpec{Nodes: 2 + int(seed%7), Seed: seed, Alphabet: []string{"a", "b", "c"}})
		doc := workload.RandomTree(workload.TreeSpec{Nodes: 2 + int((seed*3)%8), Seed: seed + 1000, Alphabet: []string{"a", "b", "c"}})
		if d := NewDoc(doc); d.Len() != doc.Len() {
			t.Fatalf("seed %d: %d candidates for %d nodes", seed, d.Len(), doc.Len())
		}
		p := NewPattern(pat)
		codes := p.Codes(doc.Dict())
		for v := range tree.NodeID(doc.Len()) {
			sub := tree.MustParseSexpr(subtreeSexpr(doc, v))
			if got, want := Distance(doc, v, p, codes), DistanceTrees(pat, sub); got != want {
				t.Fatalf("seed %d, subtree at node %d: in place %d, standalone %d\n pattern %s\n doc %s", seed, v, got, want, pat, doc)
			}
		}
		// A label the document lacks translates to -1, never to a code in use.
		if c := NewPattern(tree.MustParseSexpr("nope")).Codes(doc.Dict())[0]; c != tree.NoCode {
			t.Fatalf("seed %d: absent label got code %d", seed, c)
		}
	}
}

// TestDistanceUnlabeled: an unlabeled pattern node matches an unlabeled
// document node at no cost, and a labeled one at a rename.
func TestDistanceUnlabeled(t *testing.T) {
	b := tree.NewBuilder()
	r := b.AddRoot()
	b.AddChild(r, "a")
	b.AddChild(r)
	doc := b.MustBuild()
	for _, c := range []struct {
		pat  string
		want int
	}{{"_(a _)", 0}, {"x(a _)", 1}, {"_(a b)", 1}, {"_(_ _)", 1}} {
		pat := tree.MustParseSexpr(c.pat)
		if got := DistanceTrees(pat, doc); got != c.want {
			t.Errorf("Distance(%s, unlabeled root with a and an unlabeled leaf) = %d, want %d", c.pat, got, c.want)
		}
	}
}

// TestDistanceSubtreeRange exercises the in-place candidate path: distances
// computed against the subtrees of one document, addressed by NodeID, must
// agree with the brute force on the same subtrees materialized as
// standalone trees.
func TestDistanceSubtreeRange(t *testing.T) {
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 40, Seed: 7, Alphabet: []string{"a", "b", "c", "d"}})
	pat := tree.MustParseSexpr("a(b c)")
	p := NewPattern(pat)
	codes := p.Codes(doc.Dict())
	for v := range tree.NodeID(doc.Len()) {
		sub, err := tree.ParseSexpr(subtreeSexpr(doc, v))
		if err != nil {
			t.Fatalf("subtree at node %d: %v", v, err)
		}
		want := bruteTED(pat, sub)
		if got := Distance(doc, v, p, codes); got != want {
			t.Fatalf("subtree at node %d: kernel %d, brute force %d (subtree %s)", v, got, want, sub)
		}
	}
}

// subtreeSexpr renders the subtree rooted at v in ParseSexpr syntax.
func subtreeSexpr(t *tree.Tree, v tree.NodeID) string {
	lbl := t.Label(v)
	if lbl == "" {
		lbl = "_"
	}
	kids := t.Children(v)
	if len(kids) == 0 {
		return lbl
	}
	s := lbl + "("
	for i, c := range kids {
		if i > 0 {
			s += " "
		}
		s += subtreeSexpr(t, c)
	}
	return s + ")"
}

// TestBySizeOrder: the counting sort behind Doc.BySize yields exactly the
// (subtree size, NodeID) order a comparison sort does.
func TestBySizeOrder(t *testing.T) {
	docs := []*tree.Tree{
		tree.MustParseSexpr("a"),
		workload.PathTree(40, "a"),
		workload.WideTree(40, "a"),
		// 1,000 items are the 15k-node documents of the scan_mix workload.
		workload.SiteDocument(workload.DocSpec{Items: 1000, Regions: 6, DescriptionDepth: 2, Seed: 1}),
	}
	for seed := int64(0); seed < 40; seed++ {
		docs = append(docs, workload.RandomTree(workload.TreeSpec{Nodes: 1 + int(seed*13%300), MaxFanout: int(seed % 5), Seed: seed}))
	}
	for _, doc := range docs {
		d := NewDoc(doc)
		want := make([]int32, d.Len())
		for j := range want {
			want[j] = int32(j)
		}
		size := func(v int32) int { return doc.SubtreeSize(tree.NodeID(v)) }
		sort.Slice(want, func(a, b int) bool {
			va, vb := want[a], want[b]
			if size(va) != size(vb) {
				return size(va) < size(vb)
			}
			return va < vb
		})
		if !slices.Equal(d.BySize(), want) {
			t.Fatalf("%d-node tree: BySize differs from the (size, NodeID) sort", d.Len())
		}
	}
}

func TestPatternDecomposition(t *testing.T) {
	p := NewPattern(tree.MustParseSexpr("a(b(c) d)"))
	if p.Size() != 4 {
		t.Fatalf("size = %d, want 4", p.Size())
	}
	if got := p.Hist()["a"] + p.Hist()["b"] + p.Hist()["c"] + p.Hist()["d"]; got != 4 {
		t.Fatalf("histogram mass = %d, want 4", got)
	}
	// Postorder: c(0) b(1) d(2) a(3).  Keyroots: d (left sibling) and root a.
	if len(p.kr) != 2 || p.kr[0] != 2 || p.kr[1] != 3 {
		t.Fatalf("keyroots = %v, want [2 3]", p.kr)
	}
}

func TestPoolRoundTrip(t *testing.T) {
	h0, m0 := PoolStats()
	a := workload.RandomTree(workload.TreeSpec{Nodes: 30, Seed: 1})
	b := workload.RandomTree(workload.TreeSpec{Nodes: 30, Seed: 2})
	for i := 0; i < 8; i++ {
		DistanceTrees(a, b)
	}
	h1, m1 := PoolStats()
	if h1-h0+m1-m0 == 0 {
		t.Fatal("pool counters did not move")
	}
	if h1 == h0 {
		t.Fatal("expected at least one pool hit across 8 identical kernel runs")
	}
}
