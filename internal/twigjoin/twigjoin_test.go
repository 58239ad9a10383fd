package twigjoin

import (
	"testing"

	"repro/internal/arccons"
	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/poolcheck"
	"repro/internal/tree"
	"repro/internal/workload"
)

func TestMain(m *testing.M) { poolcheck.Main(m, bitset.Outstanding, arccons.Outstanding) }

func paperTree() *tree.Tree { return tree.MustParseSexpr("a(b(a c) a(b d))") }

func matchesToAnswers(ms []Match) []cq.Answer {
	out := make([]cq.Answer, len(ms))
	for i, m := range ms {
		out[i] = cq.Answer(m)
	}
	return out
}

// crossCheck compares a twig match against the naive CQ evaluation of the
// twig's translation.
func crossCheck(t *testing.T, tr *tree.Tree, tw *Twig, name string) {
	t.Helper()
	want := cq.EvaluateNaive(tw.ToCQ(), tr)
	got, err := MatchTwig(tr, tw)
	if err != nil {
		t.Fatalf("%s: MatchTwig(%s): %v", name, tw, err)
	}
	if !cq.AnswersEqual(matchesToAnswers(got), want) {
		t.Errorf("%s: pattern %s: twig join found %d matches, naive CQ %d", name, tw, len(got), len(want))
	}
}

func TestPathConstructionAndValidate(t *testing.T) {
	tw, err := Path([]string{"a", "b", "c"}, []EdgeKind{ChildEdge, DescendantEdge})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Validate(); err != nil {
		t.Fatal(err)
	}
	if tw.String() != "//a/b//c" {
		t.Errorf("String = %q", tw.String())
	}
	if _, err := Path([]string{"a"}, []EdgeKind{ChildEdge}); err == nil {
		t.Errorf("mismatched edge count should fail")
	}
	bad := &Twig{Labels: []string{"a", "b"}, Parent: []int{-1, 5}, Edge: []EdgeKind{DescendantEdge, ChildEdge}}
	if err := bad.Validate(); err == nil {
		t.Errorf("bad parent should fail validation")
	}
	if err := (&Twig{}).Validate(); err == nil {
		t.Errorf("empty pattern should fail validation")
	}
	if ChildEdge.String() != "/" || DescendantEdge.String() != "//" {
		t.Errorf("EdgeKind.String wrong")
	}
}

func TestMatchPathPaperTree(t *testing.T) {
	tr := paperTree()
	// //a//b: (1,2), (1,6), (5,6).
	tw, _ := Path([]string{"a", "b"}, []EdgeKind{DescendantEdge})
	ms, err := MatchPath(tr, tw)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("//a//b matches = %v", ms)
	}
	// //a/b/c: (1,2,?) no c child of b pre2? c at pre4 is a child of b pre2: (1,2,4).
	tw2, _ := Path([]string{"a", "b", "c"}, []EdgeKind{ChildEdge, ChildEdge})
	ms2, err := MatchPath(tr, tw2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms2) != 1 || tr.Pre(ms2[0][2]) != 4 {
		t.Fatalf("//a/b/c matches = %v", ms2)
	}
	// Pattern with repeated labels: //a//a.
	tw3, _ := Path([]string{"a", "a"}, []EdgeKind{DescendantEdge})
	ms3, err := MatchPath(tr, tw3)
	if err != nil {
		t.Fatal(err)
	}
	// (1,3), (1,5): the root a has two a descendants.
	if len(ms3) != 2 {
		t.Fatalf("//a//a matches = %v", ms3)
	}
	// Wildcards.
	tw4, _ := Path([]string{"*", "d"}, []EdgeKind{ChildEdge})
	ms4, err := MatchPath(tr, tw4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms4) != 1 || tr.Pre(ms4[0][0]) != 5 {
		t.Fatalf("//*/d matches = %v", ms4)
	}
}

func TestMatchPathErrors(t *testing.T) {
	tr := paperTree()
	branching := &Twig{
		Labels: []string{"a", "b", "c"},
		Parent: []int{-1, 0, 0},
		Edge:   []EdgeKind{DescendantEdge, ChildEdge, ChildEdge},
	}
	if _, err := MatchPath(tr, branching); err == nil {
		t.Errorf("MatchPath should reject branching patterns")
	}
	rooted := &Twig{Labels: []string{"a"}, Parent: []int{-1}, Edge: []EdgeKind{ChildEdge}}
	if _, err := MatchPath(tr, rooted); err == nil {
		t.Errorf("MatchPath should reject child-rooted patterns")
	}
}

func TestMatchTwigPaperTree(t *testing.T) {
	tr := paperTree()
	// //a[b]//d : a nodes with a b child and a d descendant.
	tw := &Twig{
		Labels: []string{"a", "b", "d"},
		Parent: []int{-1, 0, 0},
		Edge:   []EdgeKind{DescendantEdge, ChildEdge, DescendantEdge},
	}
	ms, err := MatchTwig(tr, tw)
	if err != nil {
		t.Fatal(err)
	}
	// a at pre 1 (b=2 or 6... b child: pre-2? root's children are b(2),a(5) -> b=2; d=7)
	// a at pre 5 (b=6, d=7).
	if len(ms) != 2 {
		t.Fatalf("matches = %v", ms)
	}
	crossCheck(t, tr, tw, "paper")
}

func TestMatchTwigAgainstCQRandom(t *testing.T) {
	alphabet := []string{"a", "b", "c"}
	for seed := int64(0); seed < 30; seed++ {
		tr := workload.RandomTree(workload.TreeSpec{Nodes: 40, Seed: seed, Alphabet: alphabet})
		// Random twig pattern with 2-5 nodes.
		k := 2 + int(seed%4)
		tw := &Twig{Labels: make([]string, k), Parent: make([]int, k), Edge: make([]EdgeKind, k)}
		tw.Parent[0] = -1
		tw.Edge[0] = DescendantEdge
		rng := seed
		next := func(n int64) int64 {
			rng = (rng*6364136223846793005 + 1442695040888963407) % (1 << 31)
			if rng < 0 {
				rng = -rng
			}
			return rng % n
		}
		for i := 0; i < k; i++ {
			if next(4) == 0 {
				tw.Labels[i] = "*"
			} else {
				tw.Labels[i] = alphabet[next(int64(len(alphabet)))]
			}
			if i > 0 {
				tw.Parent[i] = int(next(int64(i)))
				if next(2) == 0 {
					tw.Edge[i] = ChildEdge
				} else {
					tw.Edge[i] = DescendantEdge
				}
			}
		}
		crossCheck(t, tr, tw, "random")
	}
}

func TestMatchTwigSiteDocument(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 25, Regions: 3, DescriptionDepth: 2, Seed: 5})
	// //item[name]/description//keyword
	tw := &Twig{
		Labels: []string{"item", "name", "description", "keyword"},
		Parent: []int{-1, 0, 0, 2},
		Edge:   []EdgeKind{DescendantEdge, ChildEdge, ChildEdge, DescendantEdge},
	}
	ms, err := MatchTwig(doc, tw)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 25*2 {
		t.Errorf("matches = %d, want 50", len(ms))
	}
	crossCheck(t, doc, tw, "site")
}
