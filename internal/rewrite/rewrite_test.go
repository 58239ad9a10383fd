package rewrite

import (
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/tree"
	"repro/internal/workload"
)

// TestTable1ClosedForm checks PairSatisfiable against the literal content of
// Table 1 of the paper.
func TestTable1ClosedForm(t *testing.T) {
	// Rows R, columns S, values sat?
	want := map[tree.Axis]map[tree.Axis]bool{
		tree.Child: {
			tree.Child: false, tree.Descendant: false,
			tree.NextSiblingAxis: true, tree.FollowingSibling: true,
		},
		tree.Descendant: {
			tree.Child: true, tree.Descendant: true,
			tree.NextSiblingAxis: true, tree.FollowingSibling: true,
		},
		tree.NextSiblingAxis: {
			tree.Child: false, tree.Descendant: false,
			tree.NextSiblingAxis: false, tree.FollowingSibling: false,
		},
		tree.FollowingSibling: {
			tree.Child: false, tree.Descendant: false,
			tree.NextSiblingAxis: true, tree.FollowingSibling: true,
		},
	}
	for r, row := range want {
		for s, sat := range row {
			if got := PairSatisfiable(r, s); got != sat {
				t.Errorf("PairSatisfiable(%v, %v) = %v, want %v", r, s, got, sat)
			}
		}
	}
	if len(Table1Axes()) != 4 {
		t.Errorf("Table1Axes = %v", Table1Axes())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("PairSatisfiable on an unsupported axis should panic")
			}
		}()
		PairSatisfiable(tree.Following, tree.Child)
	}()
}

// TestTable1Computed recomputes Table 1 by exhaustive search over all trees
// with at most 4 nodes and compares with the closed form (experiment E7).
func TestTable1Computed(t *testing.T) {
	computed := Table1Computed(4)
	for _, r := range Table1Axes() {
		for _, s := range Table1Axes() {
			want := PairSatisfiable(r, s)
			got := computed[[2]tree.Axis{r, s}]
			if got != want {
				t.Errorf("Table 1 cell (%v, %v): search says %v, closed form says %v", r, s, got, want)
			}
		}
	}
}

func TestEnumerateTreesCounts(t *testing.T) {
	// Ordered trees with n nodes are counted by Catalan(n-1): 1, 1, 2, 5, 14.
	counts := map[int]int{}
	for _, tr := range enumerateTrees(5) {
		counts[tr.Len()]++
	}
	want := map[int]int{1: 1, 2: 1, 3: 2, 4: 5, 5: 14}
	for n, c := range want {
		if counts[n] != c {
			t.Errorf("trees with %d nodes: %d, want %d", n, counts[n], c)
		}
	}
}

func TestMakeForward(t *testing.T) {
	q := cq.MustParse("Q(x) :- Parent(x, y), Ancestor(x, z), Lab[a](y).")
	f := MakeForward(q)
	for _, a := range f.Axes {
		if !a.Axis.IsForward() {
			t.Errorf("atom %v is not forward", a)
		}
	}
	// Semantics preserved.
	tr := tree.MustParseSexpr("a(b(a c) a(b d))")
	if !cq.AnswersEqual(cq.EvaluateNaive(q, tr), cq.EvaluateNaive(f, tr)) {
		t.Errorf("MakeForward changed the answers")
	}
}

func TestToAcyclicUnionSimpleCases(t *testing.T) {
	// Already-acyclic query: at least one disjunct, all acyclic.
	q := cq.MustParse("Q(x) :- Lab[a](x), Child+(x, y), Lab[b](y).")
	ds, _, err := ToAcyclicUnion(q)
	if err != nil {
		t.Fatalf("ToAcyclicUnion: %v", err)
	}
	if len(ds) == 0 {
		t.Fatalf("no disjuncts")
	}
	for _, d := range ds {
		if !d.IsAcyclic() {
			t.Errorf("disjunct %v is cyclic", d)
		}
		if len(d.Orders) != 0 {
			t.Errorf("disjunct %v still has order atoms", d)
		}
	}
	// A query whose consistent orders are too many is refused: ten
	// variables, one more than the old fixed variable cap admitted.
	big := cq.RandomTwig(cq.GenSpec{Vars: 10, Seed: 1})
	if _, n, err := ToAcyclicUnion(big); err != ErrSearchBudget || n != SearchBudget+1 {
		t.Errorf("error = %v after %d placements, want ErrSearchBudget after %d", err, n, SearchBudget+1)
	}
	// Order atoms in the input are rejected.
	withOrder := cq.MustParse("Q :- Lab[a](x), Lab[a](y), x <pre y.")
	if _, _, err := ToAcyclicUnion(withOrder); err == nil {
		t.Errorf("order atoms should be rejected")
	}
	// Empty-body query passes through.
	ds, _, err = ToAcyclicUnion(cq.MustParse("Q :- true."))
	if err != nil || len(ds) != 1 {
		t.Errorf("true query rewriting: %v %v", ds, err)
	}
}

// crossCheck evaluates q both naively and via the rewritten union on the
// kernel, and holds the union to its order contract: strictly ascending
// tuples, equal slice for slice to the sorted naive answers.  A set-wise
// comparison would hide a repeated tuple or one out of order.
func crossCheck(t *testing.T, q *cq.Query, tr *tree.Tree, name string) {
	t.Helper()
	want := cq.SortDedupAnswers(cq.EvaluateNaive(q, tr))
	got, nd, err := EvaluateViaRewrite(q, tr)
	if err != nil {
		t.Fatalf("%s: EvaluateViaRewrite(%s): %v", name, q, err)
	}
	if nd == 0 && len(want) > 0 {
		t.Fatalf("%s: no disjuncts produced for the satisfiable query %s", name, q)
	}
	for i := 1; i < len(got); i++ {
		if slices.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("%s: query %s: answer %d %v does not follow answer %d %v in strictly ascending order",
				name, q, i, got[i], i-1, got[i-1])
		}
	}
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("%s: query %s: rewrite gives %d answers %v, naive gives %d %v",
			name, q, len(got), got, len(want), want)
	}
}

// TestTheorem51CyclicQueries is the core check of Theorem 5.1: cyclic
// conjunctive queries (which Yannakakis alone rejects) are answered
// correctly after rewriting into an acyclic union.
func TestTheorem51CyclicQueries(t *testing.T) {
	tr := tree.MustParseSexpr("a(b(a c(b)) a(b d(a b)) c(a))")
	queries := []string{
		// Triangle over descendant axes.
		"Q(x) :- Lab[a](x), Child+(x, y), Child+(y, z), Child+(x, z), Lab[b](z).",
		// Two paths to the same target (the R(x,z), S(y,z) pattern of Table 1).
		"Q(z) :- Lab[a](x), Lab[b](y), Child+(x, z), Child+(y, z).",
		"Q(z) :- Lab[a](x), Lab[b](y), Child(x, z), Child+(y, z).",
		"Q(z) :- Child(x, z), Following-Sibling(y, z), Lab[a](x), Lab[b](y).",
		// Reflexive-transitive axes forcing equality splits.
		"Q(x, y) :- Child*(x, y), Lab[a](x), Lab[a](y).",
		"Q(x) :- Child*(x, y), Child*(y, x).",
		// Reverse axes.
		"Q(x) :- Parent(x, y), Lab[b](y), Ancestor(z, x), Lab[a](z).",
		// Following axis (eliminated by the rewriting).
		"Q(x, y) :- Following(x, y), Lab[c](x), Lab[b](y).",
		// Boolean cyclic query.
		"Q :- Child+(x, y), Child+(y, z), Child+(x, z), Lab[b](y).",
	}
	for _, s := range queries {
		crossCheck(t, cq.MustParse(s), tr, "fixed")
	}
}

// TestRewriteRandomQueries cross-checks generated queries, acyclic and
// cyclic (seed%2 extra atoms), with one head variable and with two
// (1 + seed/2%2): a binary head is where the disjuncts' answers overlap
// partially and the union's merge must interleave them.
func TestRewriteRandomQueries(t *testing.T) {
	axes := []tree.Axis{tree.Child, tree.Descendant, tree.DescendantOrSelf, tree.FollowingSibling}
	for seed := int64(0); seed < 25; seed++ {
		tr := workload.RandomTree(workload.TreeSpec{Nodes: 20, Seed: seed, Alphabet: []string{"a", "b"}})
		q := cq.RandomTwig(cq.GenSpec{
			Vars: 2 + int(seed%3), Alphabet: []string{"a", "b"}, LabelProb: 0.5,
			Axes: axes, ExtraEdges: int(seed % 2), Seed: seed, HeadVars: 1 + int(seed/2%2),
		})
		crossCheck(t, q, tr, "random")
	}
}

// TestRewriteDescendantStarGrowth exercises the blow-up of the translation
// (Section 5 notes that queries over Child+ alone cannot be translated into
// polynomially many / polynomially sized acyclic queries): a "star" query
// with k independent Child+ atoms into a common target variable needs one
// disjunct per relative order of the k source variables, so the number of
// disjuncts grows with k.  Every disjunct must stay acyclic and the union
// must stay equivalent to the input.
func TestRewriteDescendantStarGrowth(t *testing.T) {
	tr := workload.RandomTree(workload.TreeSpec{Nodes: 30, Seed: 3, Alphabet: []string{"a", "b", "c", "d"}})
	labels := []string{"a", "b", "c", "d"}
	prev := 0
	for k := 2; k <= 4; k++ {
		q := &cq.Query{Head: []cq.Variable{"z"}}
		q.Labels = append(q.Labels, cq.LabelAtom{Var: "z", Label: "d"})
		for i := 0; i < k; i++ {
			v := cq.Variable("x" + string(rune('0'+i)))
			q.Labels = append(q.Labels, cq.LabelAtom{Var: v, Label: labels[i%3]})
			q.Axes = append(q.Axes, cq.AxisAtom{Axis: tree.Descendant, From: v, To: "z"})
		}
		ds, _, err := ToAcyclicUnion(q)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for _, d := range ds {
			if !d.IsAcyclic() {
				t.Errorf("k=%d: cyclic disjunct %v", k, d)
			}
		}
		if len(ds) <= prev {
			t.Errorf("k=%d: %d disjuncts, want more than %d", k, len(ds), prev)
		}
		prev = len(ds)
		crossCheck(t, q, tr, "star")
	}
}
