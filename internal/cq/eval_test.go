package cq

import (
	"testing"

	"repro/internal/tree"
)

// paperTree is the Figure 2 tree: a(b(a c) a(b d)).
func paperTree() *tree.Tree { return tree.MustParseSexpr("a(b(a c) a(b d))") }

func TestEvaluateNaiveUnary(t *testing.T) {
	tr := paperTree()
	// Nodes labeled a with a descendant labeled d.
	q := MustParse("Q(x) :- Lab[a](x), Child+(x, y), Lab[d](y).")
	got := EvaluateNaive(q, tr)
	// a at pre 1 and a at pre 5 qualify (d is at pre 7).
	if len(got) != 2 {
		t.Fatalf("answers = %v", got)
	}
	pres := map[int]bool{}
	for _, ans := range got {
		pres[tr.Pre(ans[0])] = true
	}
	if !pres[1] || !pres[5] {
		t.Errorf("answer preorders = %v, want {1,5}", pres)
	}
}

func TestEvaluateNaiveBinary(t *testing.T) {
	tr := paperTree()
	q := MustParse("Q(x, y) :- Lab[b](x), Child(x, y).")
	got := EvaluateNaive(q, tr)
	// b at pre 2 has children at pre 3, 4; b at pre 6 has none.
	if len(got) != 2 {
		t.Fatalf("answers = %v", got)
	}
	for _, ans := range got {
		if tr.Label(ans[0]) != "b" || tr.Parent(ans[1]) != ans[0] {
			t.Errorf("bad answer %v", ans)
		}
	}
}

func TestEvaluateNaiveBoolean(t *testing.T) {
	tr := paperTree()
	yes := MustParse("Q :- Lab[c](x), Following(x, y), Lab[d](y).")
	if len(EvaluateNaive(yes, tr)) != 1 {
		t.Errorf("query should be satisfied")
	}
	if !Satisfiable(yes, tr) {
		t.Errorf("Satisfiable should be true")
	}
	no := MustParse("Q :- Lab[d](x), Child(x, y).")
	if len(EvaluateNaive(no, tr)) != 0 {
		t.Errorf("query should not be satisfied (d is a leaf)")
	}
	if Satisfiable(no, tr) {
		t.Errorf("Satisfiable should be false")
	}
}

func TestEvaluateNaiveWithOrderAtoms(t *testing.T) {
	tr := paperTree()
	// Pairs of b-labeled nodes in document order.
	q := MustParse("Q(x, y) :- Lab[b](x), Lab[b](y), x <pre y.")
	got := EvaluateNaive(q, tr)
	if len(got) != 1 {
		t.Fatalf("answers = %v", got)
	}
	if tr.Pre(got[0][0]) != 2 || tr.Pre(got[0][1]) != 6 {
		t.Errorf("answer = (%d,%d)", tr.Pre(got[0][0]), tr.Pre(got[0][1]))
	}
}

func TestEvaluateNaiveEmptyDomain(t *testing.T) {
	tr := paperTree()
	q := MustParse("Q(x) :- Lab[nonexistent](x).")
	if got := EvaluateNaive(q, tr); len(got) != 0 {
		t.Errorf("answers = %v, want none", got)
	}
}

func TestEvaluateNaiveTrueQuery(t *testing.T) {
	tr := paperTree()
	q := MustParse("Q :- true.")
	got := EvaluateNaive(q, tr)
	if len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("true query answers = %v", got)
	}
}

func TestEvaluateNaiveDuplicateElimination(t *testing.T) {
	tr := paperTree()
	// Project away y: multiple y per x must collapse to one answer per x.
	q := MustParse("Q(x) :- Lab[a](x), Child+(x, y).")
	got := EvaluateNaive(q, tr)
	if len(got) != 2 { // root a and the a at pre 5 have descendants; a at pre 3 is a leaf
		t.Errorf("answers = %v", got)
	}
}

func TestEvaluateNaiveDisconnectedQuery(t *testing.T) {
	tr := paperTree()
	q := MustParse("Q(x, y) :- Lab[c](x), Lab[d](y).")
	got := EvaluateNaive(q, tr)
	if len(got) != 1 {
		t.Fatalf("answers = %v", got)
	}
	if tr.Label(got[0][0]) != "c" || tr.Label(got[0][1]) != "d" {
		t.Errorf("answer labels wrong")
	}
}

func TestAnswersEqualAndSort(t *testing.T) {
	a := []Answer{{1, 2}, {0, 3}}
	b := []Answer{{0, 3}, {1, 2}}
	if !AnswersEqual(a, b) {
		t.Errorf("AnswersEqual should ignore order")
	}
	if AnswersEqual(a, []Answer{{1, 2}}) {
		t.Errorf("different sizes should not be equal")
	}
	if AnswersEqual(a, []Answer{{1, 2}, {9, 9}}) {
		t.Errorf("different tuples should not be equal")
	}
	SortAnswers(a)
	if a[0][0] != 0 {
		t.Errorf("SortAnswers wrong: %v", a)
	}
}

func TestGeneratorsShapes(t *testing.T) {
	twig := RandomTwig(GenSpec{Vars: 6, Alphabet: []string{"a", "b"}, LabelProb: 1, Seed: 1, HeadVars: 2})
	if !twig.IsAcyclic() || !twig.IsConnected() {
		t.Errorf("RandomTwig should be acyclic and connected: %v", twig)
	}
	if len(twig.Head) != 2 {
		t.Errorf("HeadVars not honored")
	}
	if err := twig.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	foundCyclic := false
	for seed := int64(0); seed < 10; seed++ {
		if !RandomTwig(GenSpec{Vars: 5, ExtraEdges: 6, Seed: seed}).IsAcyclic() {
			foundCyclic = true
			break
		}
	}
	if !foundCyclic {
		t.Errorf("extra edges never produced a cyclic query across 10 seeds")
	}
	path := RandomPath(GenSpec{Vars: 4, Alphabet: []string{"a"}, LabelProb: 1, Seed: 3})
	if len(path.Axes) != 3 || !path.IsAcyclic() {
		t.Errorf("RandomPath shape wrong: %v", path)
	}
	single := RandomTwig(GenSpec{Vars: 1, Seed: 4, HeadVars: 1})
	if err := single.Validate(); err != nil {
		t.Errorf("single-variable twig unsafe: %v", err)
	}
	singlePath := RandomPath(GenSpec{Vars: 1, Seed: 4})
	if singlePath.NumAtoms() == 0 {
		t.Errorf("single-variable path should still have a body atom")
	}
	// Determinism.
	if RandomTwig(GenSpec{Vars: 6, Seed: 9}).String() != RandomTwig(GenSpec{Vars: 6, Seed: 9}).String() {
		t.Errorf("RandomTwig not deterministic")
	}
}

func TestGeneratedQueriesEvaluate(t *testing.T) {
	tr := tree.MustParseSexpr("a(b(a c) a(b d) c(a b))")
	for seed := int64(0); seed < 20; seed++ {
		q := RandomTwig(GenSpec{
			Vars: 3, Alphabet: []string{"a", "b", "c", "d"}, LabelProb: 0.7,
			Axes: []tree.Axis{tree.Child, tree.Descendant, tree.FollowingSibling},
			Seed: seed, HeadVars: 1,
		})
		// Must not panic and must return well-formed answers.
		for _, ans := range EvaluateNaive(q, tr) {
			if len(ans) != 1 {
				t.Fatalf("seed %d: answer arity %d", seed, len(ans))
			}
		}
	}
}
