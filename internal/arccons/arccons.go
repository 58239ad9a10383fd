// Package arccons implements Section 6 of the paper: evaluating conjunctive
// queries over trees through arc-consistency and the X-underbar property.
//
//   - SatisfiableX evaluates Boolean conjunctive queries over a tractable
//     signature in O(||A||·|Q|) via Theorem 6.5: the subset-maximal
//     arc-consistent pre-valuation, then the minimum valuation of Lemma 6.4.
//     CheckTuple is the same with the head variables pinned to a tuple.  Both
//     compute the pre-valuation as a fixpoint of the interval-join kernel's
//     image semi-joins (one tree.Image call per revision of an atom).
//   - MaxPreValuation computes the same pre-valuation with the Horn-SAT
//     encoding of Proposition 6.2, solved by Minoux' algorithm (package
//     hornsat).  It is the paper's construction as stated and the reference
//     the fixpoint is tested against; no engine route calls it.
//   - HasXProperty checks Definition 6.3 for a relation/order pair, and
//     XPropertyOrder implements Proposition 6.6 (which axes have the
//     X-property with respect to which of <pre, <post, <bflr).
//   - ClassifySignature is the dichotomy classifier of Theorem 6.8: a set of
//     axes is tractable iff it fits one of the signatures tau1, tau2, tau3.
//   - Compile and Compiled.EnumerateCtx (kernel.go) are the interval-join
//     kernel every relational route of the engine executes on: the full
//     reducer computes the maximal arc-consistent pre-valuation of an
//     acyclic query as semi-joins on preorder-rank bitsets, and the answers
//     are enumerated from it without backtracking (Figure 6, Propositions
//     6.9 and 6.10) -- the generalization of holistic twig joins.
//     EnumerateAcyclic is the compile-and-run-once wrapper.
package arccons

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/hornsat"
	"repro/internal/tree"
)

// PreValuation maps every query variable to its set of candidate nodes, a bit
// vector over NodeIDs (Section 6).  A pre-valuation is total: every variable
// of the query is present with a non-empty set; the functions below return
// ok=false instead of producing a partial one.
type PreValuation map[cq.Variable]bitset.Bits

// Contains reports whether node n is in the candidate set of variable v.
func (p PreValuation) Contains(v cq.Variable, n tree.NodeID) bool {
	s := p[v]
	return n >= 0 && int(n) < s.Len() && s.Get(int(n))
}

// Size returns the total number of (variable, node) pairs.
func (p PreValuation) Size() int {
	s := 0
	for _, b := range p {
		s += b.Count()
	}
	return s
}

// ErrOrderAtoms is returned for queries containing order atoms, which are
// not part of the Section-6 machinery.
var ErrOrderAtoms = errors.New("arccons: query contains order atoms")

// MaxPreValuation computes the subset-maximal arc-consistent pre-valuation
// of q on t using the Horn-SAT encoding of Proposition 6.2: propositional
// atoms Out(x, v) mean "v is NOT in Theta(x)", with clauses
//
//	Out(x,v) <- .                                 if some label atom on x fails at v
//	Out(x,v) <- AND{ Out(y,w) : R(v,w) }          for each atom R(x,y)
//	Out(y,w) <- AND{ Out(x,v) : R(v,w) }          for each atom R(x,y)
//
// solved with Minoux' linear-time algorithm.  It returns ok=false if some
// variable ends up with an empty candidate set (no arc-consistent
// pre-valuation exists, hence the query is unsatisfiable).
//
// The clauses list every node's whole axis image, Theta(n^2) literals for
// Following, so this is the reference construction, not an engine route:
// SatisfiableX computes the same pre-valuation from axis images.
func MaxPreValuation(q *cq.Query, t *tree.Tree) (PreValuation, bool, error) {
	if len(q.Orders) > 0 {
		return nil, false, ErrOrderAtoms
	}
	vars := q.Variables()
	n := t.Len()
	varIdx := map[cq.Variable]int{}
	for i, v := range vars {
		varIdx[v] = i
	}
	out := func(v cq.Variable, node tree.NodeID) hornsat.Pred {
		return hornsat.Pred(varIdx[v]*n + int(node))
	}
	p := hornsat.NewProgramWithPreds(len(vars) * n)

	// Unary atoms.
	for _, v := range vars {
		labels := q.LabelsOf(v)
		if len(labels) == 0 {
			continue
		}
		codes := t.Dict().Codes(labels)
		for node := range tree.NodeID(n) {
			if !t.HasCodes(node, codes) {
				p.AddFact(out(v, node))
			}
		}
	}
	// Binary atoms.
	for _, a := range q.Axes {
		for _, v := range t.Nodes() {
			// Out(x, v) <- AND{ Out(y, w) : R(v, w) }.
			var body []hornsat.Pred
			t.StepFunc(a.Axis, v, func(w tree.NodeID) bool {
				body = append(body, out(a.To, w))
				return true
			})
			p.AddClause(out(a.From, v), body...)
		}
		for _, w := range t.Nodes() {
			// Out(y, w) <- AND{ Out(x, v) : R(v, w) }.
			var body []hornsat.Pred
			t.StepFunc(a.Axis.Inverse(), w, func(v tree.NodeID) bool {
				body = append(body, out(a.From, v))
				return true
			})
			p.AddClause(out(a.To, w), body...)
		}
	}

	model := p.Solve()
	pv := PreValuation{}
	for _, v := range vars {
		keep := bitset.New(n)
		for _, node := range t.Nodes() {
			if !model.True(out(v, node)) {
				keep.Set(int(node))
			}
		}
		if !keep.Any() {
			return nil, false, nil
		}
		pv[v] = keep
	}
	return pv, true, nil
}

// LabelIndex supplies shared per-label node masks so repeated evaluations
// over the same tree skip the per-call label scans.  Implementations must
// return masks that are stable and safe for concurrent readers (this package
// never mutates or releases them); package index provides one.
type LabelIndex interface {
	// CodeMask returns the bit vector with bit n set iff node n carries the
	// label of code c, a code of the tree's dictionary.
	CodeMask(c tree.Code) bitset.Bits
}

// IsArcConsistent verifies the two conditions of arc-consistency of pv for q
// on t node by node, from the definition (the oracle of the tests).
func IsArcConsistent(q *cq.Query, t *tree.Tree, pv PreValuation) bool {
	for _, v := range q.Variables() {
		if !pv[v].Any() {
			return false
		}
	}
	ok := true
	for _, la := range q.Labels {
		pv[la.Var].ForEach(func(n int) {
			ok = ok && t.HasLabel(tree.NodeID(n), la.Label)
		})
	}
	// supported reports whether every node of from has an a-partner in to.
	supported := func(a tree.Axis, from, to bitset.Bits) bool {
		all := true
		from.ForEach(func(v int) {
			found := false
			t.StepFunc(a, tree.NodeID(v), func(w tree.NodeID) bool {
				found = to.Get(int(w))
				return !found
			})
			all = all && found
		})
		return all
	}
	for _, a := range q.Axes {
		ok = ok && supported(a.Axis, pv[a.From], pv[a.To]) && supported(a.Axis.Inverse(), pv[a.To], pv[a.From])
	}
	return ok
}

// MinimumValuation returns the valuation that maps every variable to the
// smallest node of its candidate set with respect to the given order
// (Lemma 6.4's minimum valuation).
func MinimumValuation(t *tree.Tree, pv PreValuation, o tree.Order) map[cq.Variable]tree.NodeID {
	out := make(map[cq.Variable]tree.NodeID, len(pv))
	for v, ns := range pv {
		best := tree.NodeID(-1)
		ns.ForEach(func(n int) {
			if best < 0 || t.Less(o, tree.NodeID(n), best) {
				best = tree.NodeID(n)
			}
		})
		out[v] = best
	}
	return out
}

// IsConsistent reports whether the (total) valuation satisfies every atom of
// the query.
func IsConsistent(q *cq.Query, t *tree.Tree, val map[cq.Variable]tree.NodeID) bool {
	for _, la := range q.Labels {
		n, ok := val[la.Var]
		if !ok || !t.HasLabel(n, la.Label) {
			return false
		}
	}
	for _, a := range q.Axes {
		u, ok1 := val[a.From]
		v, ok2 := val[a.To]
		if !ok1 || !ok2 || !t.Holds(a.Axis, u, v) {
			return false
		}
	}
	for _, a := range q.Orders {
		u, ok1 := val[a.From]
		v, ok2 := val[a.To]
		if !ok1 || !ok2 || !t.Less(a.Order, u, v) {
			return false
		}
	}
	return true
}

// HasXProperty checks Definition 6.3 by brute force: for all edges
// R(n1, n2), R(n0, n3) of the axis relation with n0 < n1 and n2 < n3 (in the
// given order), R(n0, n2) must hold.  Cost is quadratic in the number of
// edges of the relation; intended for the E9 experiment on small trees.
func HasXProperty(t *tree.Tree, axis tree.Axis, o tree.Order) bool {
	pairs := t.Pairs(axis)
	for _, e1 := range pairs {
		for _, e2 := range pairs {
			n1, n2 := e1[0], e1[1]
			n0, n3 := e2[0], e2[1]
			if t.Less(o, n0, n1) && t.Less(o, n2, n3) && !t.Holds(axis, n0, n2) {
				return false
			}
		}
	}
	return true
}

// XPropertyOrder returns the total order with respect to which the axis has
// the X-property, per Proposition 6.6, and ok=false if the axis has the
// X-property with respect to none of <pre, <post, <bflr.  Self vacuously has
// the X-property with respect to every order; PreOrder is returned for it.
func XPropertyOrder(axis tree.Axis) (tree.Order, bool) {
	switch axis {
	case tree.Self:
		return tree.PreOrder, true
	case tree.Descendant, tree.DescendantOrSelf:
		return tree.PreOrder, true
	case tree.Following:
		return tree.PostOrder, true
	case tree.Child, tree.NextSiblingAxis, tree.FollowingSibling, tree.FollowingSiblingOrSelf:
		return tree.BFLROrder, true
	}
	return tree.PreOrder, false
}

// Signature identifies one of the three maximal tractable axis signatures of
// Corollary 6.7 / Theorem 6.8.
type Signature int

const (
	// SignatureNone means the axis set fits no tractable signature.
	SignatureNone Signature = iota
	// SignatureTau1 is tau1 = {Child+, Child*} (with labels and Self).
	SignatureTau1
	// SignatureTau2 is tau2 = {Following}.
	SignatureTau2
	// SignatureTau3 is tau3 = {Child, NextSibling, NextSibling*, NextSibling+}.
	SignatureTau3
)

// String names the signature as in the paper.
func (s Signature) String() string {
	switch s {
	case SignatureTau1:
		return "tau1"
	case SignatureTau2:
		return "tau2"
	case SignatureTau3:
		return "tau3"
	}
	return "none"
}

// ClassifySignature implements the dichotomy of Theorem 6.8 on the level of
// axis sets: it returns the tractable signature the axes fit into and the
// total order witnessing the X-property, or SignatureNone if the set fits
// none (in which case CQ evaluation over these axes is NP-complete).
func ClassifySignature(axes []tree.Axis) (Signature, tree.Order) {
	within := func(allowed ...tree.Axis) bool {
		set := map[tree.Axis]bool{tree.Self: true}
		for _, a := range allowed {
			set[a] = true
		}
		for _, a := range axes {
			if !set[a] {
				return false
			}
		}
		return true
	}
	switch {
	case within(tree.Descendant, tree.DescendantOrSelf):
		return SignatureTau1, tree.PreOrder
	case within(tree.Following):
		return SignatureTau2, tree.PostOrder
	case within(tree.Child, tree.NextSiblingAxis, tree.FollowingSiblingOrSelf, tree.FollowingSibling):
		return SignatureTau3, tree.BFLROrder
	}
	return SignatureNone, tree.PreOrder
}

// ErrIntractableSignature is returned by SatisfiableX when the query's axes
// fit none of the tractable signatures.
var ErrIntractableSignature = errors.New("arccons: axis set fits no tractable signature (tau1/tau2/tau3)")

// SatisfiableX decides a Boolean conjunctive query over a tractable
// signature in time O(||A||·|Q|) using Theorem 6.5: compute the maximal
// arc-consistent pre-valuation; the query is satisfiable iff it exists (and
// then the minimum valuation with respect to the signature's order is a
// witness, which the function double-checks).
func SatisfiableX(q *cq.Query, t *tree.Tree) (bool, error) {
	return SatisfiableXIndexedCtx(context.Background(), q, t, nil)
}

// SatisfiableXIndexedCtx is SatisfiableX with label tests answered by a shared
// index (nil indexes t for this call only), under a context that is polled
// after every revision of the fixpoint (one axis image).  Returns ctx.Err()
// when cancelled.
func SatisfiableXIndexedCtx(ctx context.Context, q *cq.Query, t *tree.Tree, ix LabelIndex) (bool, error) {
	return satisfiable(ctx, q, t, ix, nil)
}

// CheckTuple decides whether a given tuple of nodes (one per head variable)
// belongs to the answer of a k-ary conjunctive query over a tractable
// signature, in time O(||A||·|Q|), by the standard reduction described after
// Theorem 6.5: add the singleton unary relations X_i = {a_i}, that is, pin
// every head variable to its node, and test Boolean satisfiability.
func CheckTuple(q *cq.Query, t *tree.Tree, tuple []tree.NodeID) (bool, error) {
	if len(tuple) != len(q.Head) {
		return false, fmt.Errorf("arccons: tuple arity %d, query arity %d", len(tuple), len(q.Head))
	}
	return satisfiable(context.Background(), q, t, nil, tuple)
}

// satisfiable is Theorem 6.5 for q with its head variables pinned to the
// nodes of tuple (none when tuple is nil).
func satisfiable(ctx context.Context, q *cq.Query, t *tree.Tree, ix LabelIndex, tuple []tree.NodeID) (bool, error) {
	if len(q.Orders) > 0 {
		return false, ErrOrderAtoms
	}
	sig, order := ClassifySignature(q.AxisSet())
	if sig == SignatureNone {
		return false, ErrIntractableSignature
	}
	vars := q.Variables()
	k, ok := arcConsistency(ctx, q, vars, t, ix, tuple)
	defer k.release()
	if !ok {
		return false, k.err
	}
	pv := make(PreValuation, len(vars))
	for i, v := range vars {
		pv[v] = k.dom[i]
	}
	if !IsConsistent(q, t, MinimumValuation(t, pv, order)) {
		// Theorem 6.5 guarantees consistency; reaching this point would mean a
		// bug in the X-property machinery, so surface it loudly.
		return false, fmt.Errorf("arccons: minimum valuation of an arc-consistent pre-valuation is inconsistent for %v", q)
	}
	return true, nil
}

// arcConsistency leaves in k.dom[i] the candidate set of vars[i] (q's
// variables) in the subset-maximal arc-consistent pre-valuation of q on t,
// with the head variables first intersected with the nodes of tuple.  Every
// atom R(x, y) is revised as Theta(x) &= Image(R^-1, Theta(y)) and
// Theta(y) &= Image(R, Theta(x)), one kernel semi-join each, over a worklist
// of the atoms with an endpoint whose set shrank, until nothing changes.  The
// second revision removes only nodes with no partner left in Theta(x), which
// supported nothing there, so a revised atom stays settled until a neighbour
// shrinks one of its sets.  ok is false when a set empties, or when ctx is
// cancelled (k.err is then set).  The caller must release k.
func arcConsistency(ctx context.Context, q *cq.Query, vars []cq.Variable, t *tree.Tree, ix LabelIndex, tuple []tree.NodeID) (k *kernel, ok bool) {
	id := make(map[cq.Variable]int, len(vars))
	labels := make([][]string, len(vars))
	for i, v := range vars {
		id[v], labels[i] = i, q.LabelsOf(v)
	}
	k = newKernel(t, ix, labels)
	for i, n := range tuple {
		d := k.dom[id[q.Head[i]]]
		in := n >= 0 && int(n) < k.n && d.Get(int(n))
		d.Reset()
		if in {
			d.Set(int(n))
		}
	}
	for _, d := range k.dom {
		if !d.Any() {
			return k, false
		}
	}
	type atom struct {
		x, y int
		axis tree.Axis
	}
	atoms := make([]atom, 0, len(q.Axes))
	for _, a := range q.Axes {
		x, y := id[a.From], id[a.To]
		if x == y {
			// R(x, x) holds at every node or at none.
			if !a.Axis.IsReflexive() {
				return k, false
			}
			continue
		}
		atoms = append(atoms, atom{x, y, a.Axis})
	}
	work, queued := make([]int, len(atoms)), make([]bool, len(atoms))
	for i := range atoms {
		work[i], queued[i] = i, true
	}
	// step revises x against y under a(x, y), atom i's axis one way round,
	// and queues the other atoms on x if its set shrank.
	step := func(i, x, y int, a tree.Axis) bool {
		before := k.dom[x].Count()
		if !k.revise(ctx, x, y, a) {
			return false
		}
		if k.dom[x].Count() < before {
			for j, b := range atoms {
				if j != i && !queued[j] && (b.x == x || b.y == x) {
					work, queued[j] = append(work, j), true
				}
			}
		}
		return true
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work, queued[i] = work[:len(work)-1], false
		a := atoms[i]
		if !step(i, a.x, a.y, a.axis) || !step(i, a.y, a.x, a.axis.Inverse()) {
			return k, false
		}
	}
	return k, true
}
