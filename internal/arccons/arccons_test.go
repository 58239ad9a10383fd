package arccons

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/tree"
	"repro/internal/workload"
)

func paperTree() *tree.Tree { return tree.MustParseSexpr("a(b(a c) a(b d))") }

func TestMaxPreValuationSimple(t *testing.T) {
	tr := paperTree()
	q := cq.MustParse("Q(x) :- Lab[a](x), Child+(x, y), Lab[b](y).")
	pv, ok, err := MaxPreValuation(q, tr)
	if err != nil || !ok {
		t.Fatalf("MaxPreValuation: ok=%v err=%v", ok, err)
	}
	if !IsArcConsistent(q, tr, pv) {
		t.Fatalf("result is not arc-consistent: %v", pv)
	}
	// x candidates: the a-nodes with a b-descendant = pre 1 and pre 5.
	if pv["x"].Count() != 2 {
		t.Errorf("candidates for x = %v", pv["x"])
	}
	// y candidates: b nodes below some a = pre 2 and pre 6.
	if pv["y"].Count() != 2 {
		t.Errorf("candidates for y = %v", pv["y"])
	}
	if pv.Size() != 4 {
		t.Errorf("Size = %d", pv.Size())
	}
	if !pv.Contains("x", 0) || pv.Contains("x", 2) { // pre 1 and pre 3
		t.Errorf("Contains wrong")
	}
}

func TestMaxPreValuationUnsatisfiable(t *testing.T) {
	tr := paperTree()
	q := cq.MustParse("Q :- Lab[d](x), Child(x, y).")
	_, ok, err := MaxPreValuation(q, tr)
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if ok {
		t.Errorf("unsatisfiable query should have no arc-consistent pre-valuation")
	}
	// Unknown label empties a domain immediately.
	q2 := cq.MustParse("Q :- Lab[zzz](x).")
	_, ok, _ = MaxPreValuation(q2, tr)
	if ok {
		t.Errorf("unknown label should yield no pre-valuation")
	}
	// Order atoms rejected.
	q3 := cq.MustParse("Q :- Lab[a](x), Lab[a](y), x <pre y.")
	if _, _, err := MaxPreValuation(q3, tr); err != ErrOrderAtoms {
		t.Errorf("err = %v, want ErrOrderAtoms", err)
	}
}

// fixpoint runs arcConsistency on q and returns an owned copy of its
// pre-valuation and the number of revisions it took.
func fixpoint(t *testing.T, q *cq.Query, tr *tree.Tree, ix LabelIndex) (PreValuation, bool, int) {
	t.Helper()
	vars := q.Variables()
	k, ok := arcConsistency(context.Background(), q, vars, tr, ix, nil)
	defer k.release()
	if k.err != nil {
		t.Fatalf("arcConsistency(%s): %v", q, k.err)
	}
	pv := PreValuation{}
	for i, v := range vars {
		pv[v] = k.dom[i].Clone()
	}
	return pv, ok, k.revisions
}

// sameAsHorn asserts that the image fixpoint and the Horn-SAT encoding of
// Prop. 6.2 agree on existence and on every variable's set, and that the set
// is arc-consistent by the definition.  It returns the fixpoint's revisions.
func sameAsHorn(t *testing.T, name string, q *cq.Query, tr *tree.Tree, ix LabelIndex) int {
	t.Helper()
	want, wok, err := MaxPreValuation(q, tr)
	if err != nil {
		t.Fatalf("%s: MaxPreValuation(%s): %v", name, q, err)
	}
	got, ok, revisions := fixpoint(t, q, tr, ix)
	if ok != wok {
		t.Fatalf("%s: existence disagrees: fixpoint=%v hornsat=%v (query %s)", name, ok, wok, q)
	}
	if !ok {
		return revisions
	}
	for _, v := range q.Variables() {
		if !got[v].Equal(want[v]) {
			t.Fatalf("%s: candidate sets for %s differ (query %s)\nfixpoint %v\nhornsat  %v", name, v, q, got[v], want[v])
		}
	}
	if !IsArcConsistent(q, tr, got) {
		t.Fatalf("%s: fixpoint result not arc-consistent (query %s)", name, q)
	}
	return revisions
}

// TestHornSATMatchesPropagation cross-checks the image fixpoint behind
// SatisfiableX and CheckTuple against the Horn-SAT reference on random
// queries and trees: a mixed axis set and each tractable signature, with
// extra edges, so cyclic queries are covered.
func TestHornSATMatchesPropagation(t *testing.T) {
	axisSets := [][]tree.Axis{
		{tree.Child, tree.Descendant, tree.FollowingSibling},
		{tree.Descendant, tree.DescendantOrSelf},
		{tree.Following},
		{tree.Child, tree.NextSiblingAxis, tree.FollowingSibling, tree.FollowingSiblingOrSelf},
	}
	for _, axes := range axisSets {
		for seed := int64(0); seed < 30; seed++ {
			tr := workload.RandomTree(workload.TreeSpec{Nodes: 30, Seed: seed, Alphabet: []string{"a", "b", "c"}})
			q := cq.RandomTwig(cq.GenSpec{
				Vars: 2 + int(seed%3), Alphabet: []string{"a", "b", "c"}, LabelProb: 0.6,
				Axes: axes, Seed: seed, ExtraEdges: int(seed % 3),
			})
			sameAsHorn(t, fmt.Sprintf("%v seed %d", axes, seed), q, tr, nil)
		}
	}
}

// TestMaximality checks that the computed pre-valuation contains every
// consistent valuation (it must subsume all solutions).
func TestMaximality(t *testing.T) {
	tr := paperTree()
	queries := []string{
		"Q(x, y) :- Lab[a](x), Child(x, y).",
		"Q(x, y) :- Child+(x, y), Lab[b](y).",
		"Q(x, y) :- Following(x, y).",
	}
	for _, s := range queries {
		q := cq.MustParse(s)
		pv, ok, err := MaxPreValuation(q, tr)
		if err != nil || !ok {
			t.Fatalf("%s: %v %v", s, ok, err)
		}
		for _, ans := range cq.EvaluateNaive(q, tr) {
			for i, v := range q.Head {
				if !pv.Contains(v, ans[i]) {
					t.Errorf("%s: solution node %d for %s not in pre-valuation", s, ans[i], v)
				}
			}
		}
	}
}

// TestXPropertyProposition66 verifies Proposition 6.6 on random trees:
// each axis has the X-property exactly with respect to the orders claimed.
func TestXPropertyProposition66(t *testing.T) {
	trees := []*tree.Tree{
		paperTree(),
		workload.RandomTree(workload.TreeSpec{Nodes: 14, Seed: 1}),
		workload.RandomTree(workload.TreeSpec{Nodes: 18, Seed: 5, MaxFanout: 3}),
		workload.CompleteTree(2, 4, nil),
	}
	// For each axis, the orders for which Prop. 6.6 claims the X-property.
	claims := map[tree.Axis][]tree.Order{
		tree.Descendant:             {tree.PreOrder},
		tree.DescendantOrSelf:       {tree.PreOrder},
		tree.Following:              {tree.PostOrder},
		tree.Child:                  {tree.BFLROrder},
		tree.NextSiblingAxis:        {tree.BFLROrder},
		tree.FollowingSiblingOrSelf: {tree.BFLROrder},
		tree.FollowingSibling:       {tree.BFLROrder},
	}
	for axis, orders := range claims {
		want, ok := XPropertyOrder(axis)
		if !ok || want != orders[0] {
			t.Errorf("XPropertyOrder(%v) = %v, %v; want %v", axis, want, ok, orders[0])
		}
		for _, tr := range trees {
			for _, o := range orders {
				if !HasXProperty(tr, axis, o) {
					t.Errorf("axis %v should have the X-property w.r.t. %v on %s", axis, o, tr)
				}
			}
		}
	}
	// A negative spot check from the "One can verify that Proposition 6.6
	// lists all the cases" remark: Child does not have the X-property w.r.t.
	// <pre on all trees (find a witness tree).
	witnessFound := false
	for seed := int64(0); seed < 30 && !witnessFound; seed++ {
		tr := workload.RandomTree(workload.TreeSpec{Nodes: 12, Seed: seed})
		if !HasXProperty(tr, tree.Child, tree.PreOrder) {
			witnessFound = true
		}
	}
	if !witnessFound {
		t.Errorf("expected some tree where Child lacks the X-property w.r.t. <pre")
	}
	if _, ok := XPropertyOrder(tree.Parent); ok {
		t.Errorf("Parent should have no claimed X-property order")
	}
}

func TestClassifySignature(t *testing.T) {
	cases := []struct {
		axes []tree.Axis
		sig  Signature
	}{
		{[]tree.Axis{tree.Descendant}, SignatureTau1},
		{[]tree.Axis{tree.Descendant, tree.DescendantOrSelf, tree.Self}, SignatureTau1},
		{[]tree.Axis{tree.Following}, SignatureTau2},
		{[]tree.Axis{tree.Child, tree.NextSiblingAxis, tree.FollowingSibling, tree.FollowingSiblingOrSelf}, SignatureTau3},
		{[]tree.Axis{tree.Child}, SignatureTau3},
		{[]tree.Axis{}, SignatureTau1},
		{[]tree.Axis{tree.Child, tree.Descendant}, SignatureNone},
		{[]tree.Axis{tree.Descendant, tree.Following}, SignatureNone},
		{[]tree.Axis{tree.Parent}, SignatureNone},
	}
	for _, c := range cases {
		sig, order := ClassifySignature(c.axes)
		if sig != c.sig {
			t.Errorf("ClassifySignature(%v) = %v, want %v", c.axes, sig, c.sig)
		}
		if sig != SignatureNone {
			// Every axis in the set must have the X-property w.r.t. the returned
			// order according to Prop. 6.6.
			for _, a := range c.axes {
				if a == tree.Self {
					continue
				}
				if o, ok := XPropertyOrder(a); !ok || o != order {
					t.Errorf("axis %v in %v: claimed order %v, classifier order %v", a, c.sig, o, order)
				}
			}
		}
	}
	if SignatureTau1.String() != "tau1" || SignatureNone.String() != "none" {
		t.Errorf("Signature.String wrong")
	}
}

// TestTheorem65 checks that SatisfiableX agrees with the naive evaluator on
// Boolean queries over each tractable signature, and that the minimum
// valuation extracted from the pre-valuation is a consistent witness
// (Lemma 6.4).
func TestTheorem65(t *testing.T) {
	sigAxes := map[string][]tree.Axis{
		"tau1": {tree.Descendant, tree.DescendantOrSelf},
		"tau2": {tree.Following},
		"tau3": {tree.Child, tree.NextSiblingAxis, tree.FollowingSibling, tree.FollowingSiblingOrSelf},
	}
	for name, axes := range sigAxes {
		for seed := int64(0); seed < 20; seed++ {
			tr := workload.RandomTree(workload.TreeSpec{Nodes: 25, Seed: seed, Alphabet: []string{"a", "b", "c"}})
			q := cq.RandomTwig(cq.GenSpec{
				Vars: 2 + int(seed%3), Alphabet: []string{"a", "b", "c"}, LabelProb: 0.7,
				Axes: axes, Seed: seed, ExtraEdges: int(seed % 2),
			})
			got, err := SatisfiableX(q, tr)
			if err != nil {
				t.Fatalf("%s seed %d: SatisfiableX(%s): %v", name, seed, q, err)
			}
			want := cq.Satisfiable(q, tr)
			if got != want {
				t.Errorf("%s seed %d: SatisfiableX = %v, naive = %v (query %s)", name, seed, got, want, q)
			}
		}
	}
	// Queries outside every signature are rejected.
	tr := paperTree()
	mixed := cq.MustParse("Q :- Child(x, y), Child+(y, z).")
	if _, err := SatisfiableX(mixed, tr); err != ErrIntractableSignature {
		t.Errorf("mixed-signature query error = %v, want ErrIntractableSignature", err)
	}
}

// TestLemma64MinimumValuation directly checks Lemma 6.4: for structures with
// the X-property, the minimum valuation of an arc-consistent pre-valuation
// is consistent.
func TestLemma64MinimumValuation(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		tr := workload.RandomTree(workload.TreeSpec{Nodes: 20, Seed: seed, Alphabet: []string{"a", "b"}})
		q := cq.RandomTwig(cq.GenSpec{
			Vars: 3, Alphabet: []string{"a", "b"}, LabelProb: 0.5,
			Axes: []tree.Axis{tree.Descendant, tree.DescendantOrSelf}, Seed: seed,
		})
		pv, ok, err := MaxPreValuation(q, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		val := MinimumValuation(tr, pv, tree.PreOrder)
		if !IsConsistent(q, tr, val) {
			t.Errorf("seed %d: minimum valuation inconsistent for %s", seed, q)
		}
	}
}

func TestCheckTuple(t *testing.T) {
	tr := paperTree()
	q := cq.MustParse("Q(x, y) :- Lab[a](x), Child+(x, y), Lab[b](y).")
	want := cq.EvaluateNaive(q, tr)
	inAnswer := map[[2]tree.NodeID]bool{}
	for _, a := range want {
		inAnswer[[2]tree.NodeID{a[0], a[1]}] = true
	}
	for _, x := range tr.Nodes() {
		for _, y := range tr.Nodes() {
			got, err := CheckTuple(q, tr, []tree.NodeID{x, y})
			if err != nil {
				t.Fatalf("CheckTuple: %v", err)
			}
			if got != inAnswer[[2]tree.NodeID{x, y}] {
				t.Errorf("CheckTuple(%d,%d) = %v, want %v", x, y, got, inAnswer[[2]tree.NodeID{x, y}])
			}
		}
	}
	if _, err := CheckTuple(q, tr, []tree.NodeID{0}); err == nil {
		t.Errorf("arity mismatch should error")
	}
	mixed := cq.MustParse("Q(x) :- Child(x, y), Child+(y, z).")
	if _, err := CheckTuple(mixed, tr, []tree.NodeID{0}); err != ErrIntractableSignature {
		t.Errorf("err = %v, want ErrIntractableSignature", err)
	}
}
