// Package rewrite implements the query-rewriting technique of Section 5 of
// the paper: every conjunctive query over trees is equivalent to a union of
// acyclic positive queries (Theorem 5.1), which can then be evaluated in
// linear time per disjunct with Yannakakis' algorithm (Corollary 5.2).
//
// The package provides
//
//   - Table 1 of the paper: the satisfiability of R(x,z) ∧ S(y,z) ∧ x <pre y
//     for every pair of axes R, S ∈ {Child, Child+, NextSibling,
//     NextSibling+}, both as the closed-form table and recomputed by
//     exhaustive search over all small trees (experiment E7),
//   - ToAcyclicUnion, the rewriting procedure of the proof of Theorem 5.1:
//     search the <pre-orders of the query variables that no atom refutes
//     (at most SearchBudget placements), simplify each disjunct with the
//     Table-1 rules until it becomes acyclic, and drop the unsatisfiable
//     disjuncts,
//   - MakeForward, the elimination of reverse axes from conjunctive queries
//     (the CQ analogue of the "XPath: Looking Forward" rewriting), and
//   - Compile, which rewrites and compiles every disjunct for Yannakakis'
//     algorithm (the interval-join kernel of package arccons) once, for
//     repeated execution; EvaluateViaRewrite rewrites and evaluates in one
//     call, unioning the answers.
package rewrite

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/tree"
)

// SearchBudget bounds the placements (partial orders of the variables no
// atom refutes) the order split of ToAcyclicUnion may search; the split is
// exponential, which is unavoidable (Section 5).  The Following triangle, 9
// variables after elimination, searches 50,992.
const SearchBudget = 1 << 16

// ErrSearchBudget is returned when the order split would visit more than
// SearchBudget placements.
var ErrSearchBudget = fmt.Errorf("rewrite: the order split exceeds its budget of %d placements", SearchBudget)

// PairSatisfiable reports whether R(x,z) ∧ S(y,z) ∧ x <pre y is satisfiable
// over trees, for R, S ∈ {Child, Child+, NextSibling, NextSibling+}; this is
// Table 1 of the paper.  It panics on other axes.
func PairSatisfiable(r, s tree.Axis) bool {
	check := func(a tree.Axis) {
		switch a {
		case tree.Child, tree.Descendant, tree.NextSiblingAxis, tree.FollowingSibling:
		default:
			panic(fmt.Sprintf("rewrite: Table 1 is defined only for Child, Child+, NextSibling, NextSibling+; got %v", a))
		}
	}
	check(r)
	check(s)
	switch r {
	case tree.Child:
		// x is z's parent and y relates to z with y <pre-after x... satisfiable
		// only when S is a sibling axis (the paper's first row).
		return s == tree.NextSiblingAxis || s == tree.FollowingSibling
	case tree.Descendant:
		return true
	case tree.NextSiblingAxis:
		return false
	case tree.FollowingSibling:
		return s == tree.NextSiblingAxis || s == tree.FollowingSibling
	}
	return false
}

// Table1Axes lists the axes of Table 1 in the paper's row/column order.
func Table1Axes() []tree.Axis {
	return []tree.Axis{tree.Child, tree.Descendant, tree.NextSiblingAxis, tree.FollowingSibling}
}

// Table1Computed recomputes every cell of Table 1 by exhaustive search: the
// query R(x,z) ∧ S(y,z) ∧ x <pre y is satisfiable iff it has a model among
// the trees with at most maxNodes nodes (4 suffices for every satisfiable
// cell).  Used by experiment E7 to validate the closed-form table.
func Table1Computed(maxNodes int) map[[2]tree.Axis]bool {
	out := map[[2]tree.Axis]bool{}
	trees := enumerateTrees(maxNodes)
	for _, r := range Table1Axes() {
		for _, s := range Table1Axes() {
			q := &cq.Query{
				Axes: []cq.AxisAtom{
					{Axis: r, From: "x", To: "z"},
					{Axis: s, From: "y", To: "z"},
				},
				Orders: []cq.OrderAtom{{Order: tree.PreOrder, From: "x", To: "y"}},
			}
			sat := false
			for _, t := range trees {
				if cq.Satisfiable(q, t) {
					sat = true
					break
				}
			}
			out[[2]tree.Axis{r, s}] = sat
		}
	}
	return out
}

// enumerateTrees returns all unlabeled ordered trees with 1..maxNodes nodes
// (labels are irrelevant for Table 1).  The number of trees with n nodes is
// the Catalan number C(n-1); for maxNodes <= 6 this is tiny.
//
// Enumeration is by pre-order insertion: the parent of the next node in
// pre-order must lie on the path from the root to the most recently inserted
// node, so recursing over the choices along that path generates every
// ordered tree exactly once.
func enumerateTrees(maxNodes int) []*tree.Tree {
	var out []*tree.Tree
	for n := 1; n <= maxNodes; n++ {
		parents := make([]int, n)
		parents[0] = -1
		var rec func(i int, rightmost []int)
		rec = func(i int, rightmost []int) {
			if i == n {
				b := tree.NewBuilder()
				ids := make([]tree.NodeID, n)
				for j, p := range parents {
					if p < 0 {
						ids[j] = b.AddRoot("a")
					} else {
						ids[j] = b.AddChild(ids[p], "a")
					}
				}
				out = append(out, b.MustBuild())
				return
			}
			for k, p := range rightmost {
				parents[i] = p
				next := append(append([]int{}, rightmost[:k+1]...), i)
				rec(i+1, next)
			}
		}
		rec(1, []int{0})
	}
	return out
}

// MakeForward rewrites every reverse-axis atom into its forward counterpart
// by swapping the variable pair: Parent(x,y) becomes Child(y,x), Ancestor
// becomes Child+, and so on.  For conjunctive queries this is an exact
// equivalence (atoms are just binary relations); the resulting query uses
// only forward axes and can be handled by the streaming machinery of
// Section 5.
func MakeForward(q *cq.Query) *cq.Query {
	out := q.Clone()
	for i, a := range out.Axes {
		if !a.Axis.IsForward() {
			out.Axes[i] = cq.AxisAtom{Axis: a.Axis.Inverse(), From: a.To, To: a.From}
		}
	}
	return out
}
