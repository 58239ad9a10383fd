package arccons

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/tree"
	"repro/internal/workload"
)

func TestEnumerateAcyclicSimple(t *testing.T) {
	tr := paperTree()
	q := cq.MustParse("Q(x, y) :- Lab[a](x), Child+(x, y), Lab[b](y).")
	got, err := EnumerateAcyclic(q, tr)
	if err != nil {
		t.Fatalf("EnumerateAcyclic: %v", err)
	}
	want := cq.EvaluateNaive(q, tr)
	if !cq.AnswersEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestEnumerateAcyclicBooleanAndEmpty(t *testing.T) {
	tr := paperTree()
	yes := cq.MustParse("Q :- Lab[c](x), Following(x, y), Lab[d](y).")
	got, err := EnumerateAcyclic(yes, tr)
	if err != nil || len(got) != 1 {
		t.Errorf("satisfiable Boolean query: %v %v", got, err)
	}
	no := cq.MustParse("Q :- Lab[d](x), Child(x, y).")
	got, err = EnumerateAcyclic(no, tr)
	if err != nil || len(got) != 0 {
		t.Errorf("unsatisfiable query: %v %v", got, err)
	}
	trueQ := cq.MustParse("Q :- true.")
	got, err = EnumerateAcyclic(trueQ, tr)
	if err != nil || len(got) != 1 {
		t.Errorf("true query: %v %v", got, err)
	}
}

func TestEnumerateAcyclicRejections(t *testing.T) {
	tr := paperTree()
	cyclic := cq.MustParse("Q :- Child(x, y), Child(y, z), Child+(x, z).")
	if _, err := EnumerateAcyclic(cyclic, tr); err != ErrCyclic {
		t.Errorf("err = %v, want ErrCyclic", err)
	}
	withOrder := cq.MustParse("Q :- Lab[a](x), Lab[a](y), x <pre y.")
	if _, err := EnumerateAcyclic(withOrder, tr); err != ErrOrderAtoms {
		t.Errorf("err = %v, want ErrOrderAtoms", err)
	}
	unsafe := &cq.Query{Head: []cq.Variable{"x"}, Labels: []cq.LabelAtom{{Var: "y", Label: "a"}}}
	if _, err := EnumerateAcyclic(unsafe, tr); err == nil {
		t.Errorf("unsafe query should be rejected")
	}
}

func TestEnumerateAcyclicSelfLoopAndDisconnected(t *testing.T) {
	tr := paperTree()
	selfLoop := cq.MustParse("Q(x) :- Child*(x, x), Lab[b](x).")
	got, err := EnumerateAcyclic(selfLoop, tr)
	if err != nil {
		t.Fatalf("EnumerateAcyclic: %v", err)
	}
	if !cq.AnswersEqual(got, cq.EvaluateNaive(selfLoop, tr)) {
		t.Errorf("self-loop query mismatch: %v", got)
	}
	disc := cq.MustParse("Q(x, y) :- Lab[c](x), Lab[d](y).")
	got, err = EnumerateAcyclic(disc, tr)
	if err != nil {
		t.Fatalf("EnumerateAcyclic: %v", err)
	}
	if !cq.AnswersEqual(got, cq.EvaluateNaive(disc, tr)) {
		t.Errorf("disconnected query mismatch: %v", got)
	}
	// Disconnected with one failing component.
	disc2 := cq.MustParse("Q(x) :- Lab[c](x), Lab[zzz](y).")
	got, err = EnumerateAcyclic(disc2, tr)
	if err != nil || len(got) != 0 {
		t.Errorf("failing component should empty the result: %v %v", got, err)
	}
}

// TestEnumerateAgainstNaiveRandom is the main correctness check for the
// holistic evaluator, including multi-atom edges and different axis pools.
func TestEnumerateAgainstNaiveRandom(t *testing.T) {
	pools := [][]tree.Axis{
		{tree.Child, tree.Descendant},
		{tree.Descendant, tree.DescendantOrSelf},
		{tree.Child, tree.NextSiblingAxis, tree.FollowingSibling},
		{tree.Following, tree.Descendant},
	}
	for seed := int64(0); seed < 40; seed++ {
		tr := workload.RandomTree(workload.TreeSpec{Nodes: 20 + int(seed%3)*8, Seed: seed, Alphabet: []string{"a", "b", "c"}})
		q := cq.RandomTwig(cq.GenSpec{
			Vars: 2 + int(seed%4), Alphabet: []string{"a", "b", "c"}, LabelProb: 0.6,
			Axes: pools[seed%int64(len(pools))], Seed: seed, HeadVars: 1 + int(seed%2),
		})
		got, err := EnumerateAcyclic(q, tr)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := cq.EvaluateNaive(q, tr)
		if !cq.AnswersEqual(got, want) {
			t.Errorf("seed %d: query %s: enumerate %d answers, naive %d", seed, q, len(got), len(want))
		}
	}
}

// TestProposition69NoBacktracking checks the content of Proposition 6.9: for
// an acyclic *connected* query with at most one atom per variable pair,
// every candidate in the maximal arc-consistent pre-valuation extends to a
// full solution.
func TestProposition69NoBacktracking(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tr := workload.RandomTree(workload.TreeSpec{Nodes: 25, Seed: seed, Alphabet: []string{"a", "b"}})
		q := cq.RandomTwig(cq.GenSpec{
			Vars: 3, Alphabet: []string{"a", "b"}, LabelProb: 0.5,
			Axes: []tree.Axis{tree.Child, tree.Descendant}, Seed: seed,
		})
		if !q.IsConnected() {
			continue
		}
		pv, ok, err := MaxPreValuation(q, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		// Every candidate participates in some solution.
		full := q.Clone()
		full.Head = q.Variables()
		solutions := cq.EvaluateNaive(full, tr)
		for vi, v := range full.Head {
			pv[v].ForEach(func(cand int) {
				found := false
				for _, sol := range solutions {
					if sol[vi] == tree.NodeID(cand) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("seed %d: candidate %d of %s participates in no solution (query %s)", seed, cand, v, q)
				}
			})
		}
	}
}
