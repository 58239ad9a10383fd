// Package arccons implements Section 6 of the paper: evaluating conjunctive
// queries over trees through arc-consistency and the X-underbar property.
//
//   - MaxPreValuation computes the unique subset-maximal arc-consistent
//     pre-valuation of a query on a tree with the Horn-SAT encoding of
//     Proposition 6.2 (solved by Minoux' algorithm, package hornsat); a
//     simple AC-style propagation (MaxPreValuationPropagate) is provided as
//     a cross-check and ablation baseline.
//   - HasXProperty checks Definition 6.3 for a relation/order pair, and
//     XPropertyOrder implements Proposition 6.6 (which axes have the
//     X-property with respect to which of <pre, <post, <bflr).
//   - ClassifySignature is the dichotomy classifier of Theorem 6.8: a set of
//     axes is tractable iff it fits one of the signatures tau1, tau2, tau3.
//   - SatisfiableX evaluates Boolean conjunctive queries over a tractable
//     signature in O(||A||·|Q|) via Theorem 6.5 (arc-consistency plus the
//     minimum valuation of Lemma 6.4).
//   - Compile and Compiled.EnumerateCtx (kernel.go) are the interval-join
//     kernel every relational route of the engine executes on: the full
//     reducer computes the maximal arc-consistent pre-valuation of an
//     acyclic query as semi-joins on preorder-rank bitsets, and the answers
//     are enumerated from it without backtracking (Figure 6, Propositions
//     6.9 and 6.10) -- the generalization of holistic twig joins.
//     EnumerateAcyclic is the compile-and-run-once wrapper.
//
// MaxPreValuation, SatisfiableX and CheckTuple stay on the Horn-SAT encoding:
// they are the paper's Section-6 algorithms as stated, and the oracles the
// kernel's differential tests compare against.
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

// PreValuation maps every query variable to a set of candidate nodes
// (Section 6).  A pre-valuation is total: every variable of the query must
// be present with a non-empty set; the constructors below return ok=false
// instead of producing a partial one.
type PreValuation map[cq.Variable][]tree.NodeID

// Contains reports whether node n is in the candidate set of variable v.
func (p PreValuation) Contains(v cq.Variable, n tree.NodeID) bool {
	for _, m := range p[v] {
		if m == n {
			return true
		}
	}
	return false
}

// Size returns the total number of (variable, node) pairs.
func (p PreValuation) Size() int {
	s := 0
	for _, ns := range p {
		s += len(ns)
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
func MaxPreValuation(q *cq.Query, t *tree.Tree) (PreValuation, bool, error) {
	return MaxPreValuationIndexed(q, t, nil)
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

// MaxPreValuationIndexed is MaxPreValuation with label tests answered by a
// shared index (may be nil, in which case labels are scanned per call).
func MaxPreValuationIndexed(q *cq.Query, t *tree.Tree, ix LabelIndex) (PreValuation, bool, error) {
	return MaxPreValuationIndexedCtx(context.Background(), q, t, ix)
}

// MaxPreValuationIndexedCtx is MaxPreValuationIndexed under a context: the
// Horn-SAT solve checkpoints ctx periodically (hornsat.CheckpointInterval
// unit propagations), so a per-document budget cancels a runaway encoding
// within one checkpoint interval.  Returns ctx.Err() when cancelled.
func MaxPreValuationIndexedCtx(ctx context.Context, q *cq.Query, t *tree.Tree, ix LabelIndex) (PreValuation, bool, error) {
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
		if ix != nil {
			// Exclude every node missing one of the labels: OR the complement
			// of each cached mask word-at-a-time, then walk only the set bits.
			excluded := bitset.Acquire(n)
			for _, c := range t.Dict().Codes(labels) {
				if c == tree.NoCode { // a label the tree lacks excludes every node
					excluded.SetAll(n)
					break
				}
				excluded.OrNot(ix.CodeMask(c), n)
			}
			excluded.ForEach(func(i int) {
				p.AddFact(out(v, tree.NodeID(i)))
			})
			bitset.Release(excluded)
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

	model, err := p.SolveCtx(ctx)
	if err != nil {
		return nil, false, err
	}
	pv := PreValuation{}
	for _, v := range vars {
		var keep []tree.NodeID
		for _, node := range t.Nodes() {
			if !model.True(out(v, node)) {
				keep = append(keep, node)
			}
		}
		if len(keep) == 0 {
			return nil, false, nil
		}
		pv[v] = keep
	}
	return pv, true, nil
}

// MaxPreValuationPropagate computes the same maximal arc-consistent
// pre-valuation by straightforward constraint propagation (repeatedly remove
// candidates without a support on some atom until a fixpoint); worst-case
// slower than the Horn-SAT route but simpler.  Used as a cross-check.
func MaxPreValuationPropagate(q *cq.Query, t *tree.Tree) (PreValuation, bool, error) {
	return MaxPreValuationPropagateCtx(context.Background(), q, t)
}

// MaxPreValuationPropagateCtx is MaxPreValuationPropagate under a context:
// every axis revision of the fixpoint loop checkpoints ctx, so cancellation
// takes effect within one revision pass.  Returns ctx.Err() when cancelled.
func MaxPreValuationPropagateCtx(ctx context.Context, q *cq.Query, t *tree.Tree) (PreValuation, bool, error) {
	if len(q.Orders) > 0 {
		return nil, false, ErrOrderAtoms
	}
	vars := q.Variables()
	pv := PreValuation{}
	for _, v := range vars {
		codes := t.Dict().Codes(q.LabelsOf(v))
		var dom []tree.NodeID
		for node := range tree.NodeID(t.Len()) {
			if t.HasCodes(node, codes) {
				dom = append(dom, node)
			}
		}
		if len(dom) == 0 {
			return nil, false, nil
		}
		pv[v] = dom
	}
	return repropagate(ctx, q, t, pv)
}

func toSet(ns []tree.NodeID) map[tree.NodeID]bool {
	m := make(map[tree.NodeID]bool, len(ns))
	for _, n := range ns {
		m[n] = true
	}
	return m
}

// IsArcConsistent verifies the two conditions of arc-consistency of pv for q
// on t (used by tests and by the property-based checks).
func IsArcConsistent(q *cq.Query, t *tree.Tree, pv PreValuation) bool {
	for _, v := range q.Variables() {
		if len(pv[v]) == 0 {
			return false
		}
	}
	for _, la := range q.Labels {
		for _, n := range pv[la.Var] {
			if !t.HasLabel(n, la.Label) {
				return false
			}
		}
	}
	for _, a := range q.Axes {
		inTo := toSet(pv[a.To])
		inFrom := toSet(pv[a.From])
		for _, v := range pv[a.From] {
			ok := false
			t.StepFunc(a.Axis, v, func(w tree.NodeID) bool {
				if inTo[w] {
					ok = true
					return false
				}
				return true
			})
			if !ok {
				return false
			}
		}
		for _, w := range pv[a.To] {
			ok := false
			t.StepFunc(a.Axis.Inverse(), w, func(v tree.NodeID) bool {
				if inFrom[v] {
					ok = true
					return false
				}
				return true
			})
			if !ok {
				return false
			}
		}
	}
	return true
}

// MinimumValuation returns the valuation that maps every variable to the
// smallest node of its candidate set with respect to the given order
// (Lemma 6.4's minimum valuation).
func MinimumValuation(t *tree.Tree, pv PreValuation, o tree.Order) map[cq.Variable]tree.NodeID {
	out := map[cq.Variable]tree.NodeID{}
	for v, ns := range pv {
		best := ns[0]
		for _, n := range ns[1:] {
			if t.Less(o, n, best) {
				best = n
			}
		}
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
	return SatisfiableXIndexed(q, t, nil)
}

// SatisfiableXIndexed is SatisfiableX with label tests answered by a shared
// index (may be nil, in which case labels are scanned per call).
func SatisfiableXIndexed(q *cq.Query, t *tree.Tree, ix LabelIndex) (bool, error) {
	return SatisfiableXIndexedCtx(context.Background(), q, t, ix)
}

// SatisfiableXIndexedCtx is SatisfiableXIndexed under a context (see
// MaxPreValuationIndexedCtx for checkpoint granularity).
func SatisfiableXIndexedCtx(ctx context.Context, q *cq.Query, t *tree.Tree, ix LabelIndex) (bool, error) {
	if len(q.Orders) > 0 {
		return false, ErrOrderAtoms
	}
	sig, order := ClassifySignature(q.AxisSet())
	if sig == SignatureNone {
		return false, ErrIntractableSignature
	}
	pv, ok, err := MaxPreValuationIndexedCtx(ctx, q, t, ix)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	val := MinimumValuation(t, pv, order)
	if !IsConsistent(q, t, val) {
		// Theorem 6.5 guarantees consistency; reaching this point would mean a
		// bug in the X-property machinery, so surface it loudly.
		return false, fmt.Errorf("arccons: minimum valuation of an arc-consistent pre-valuation is inconsistent for %v", q)
	}
	return true, nil
}

// CheckTuple decides whether a given tuple of nodes (one per head variable)
// belongs to the answer of a k-ary conjunctive query over a tractable
// signature, in time O(||A||·|Q|), by the standard reduction described after
// Theorem 6.5: pin every head variable to its node with a singleton
// candidate restriction and test Boolean satisfiability.
func CheckTuple(q *cq.Query, t *tree.Tree, tuple []tree.NodeID) (bool, error) {
	if len(tuple) != len(q.Head) {
		return false, fmt.Errorf("arccons: tuple arity %d, query arity %d", len(tuple), len(q.Head))
	}
	pinned := q.Clone()
	pinned.Head = nil
	sig, order := ClassifySignature(q.AxisSet())
	if sig == SignatureNone {
		return false, ErrIntractableSignature
	}
	// The paper's reduction adds singleton unary relations X_i = {a_i}; the
	// equivalent operation here is to intersect the maximal arc-consistent
	// pre-valuation with the pinned nodes and re-establish arc-consistency by
	// propagation (which can only shrink candidate sets further).
	pv, ok, err := MaxPreValuation(pinned, t)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	for i, v := range q.Head {
		if !pv.Contains(v, tuple[i]) {
			return false, nil
		}
		pv[v] = []tree.NodeID{tuple[i]}
	}
	pv, ok, err = repropagate(context.Background(), pinned, t, pv)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	val := MinimumValuation(t, pv, order)
	return IsConsistent(pinned, t, val), nil
}

// repropagate removes unsupported candidates from pv until arc-consistency
// is restored; returns ok=false if a candidate set empties.  Every axis
// revision checkpoints ctx.
func repropagate(ctx context.Context, q *cq.Query, t *tree.Tree, pv PreValuation) (PreValuation, bool, error) {
	changed := true
	for changed {
		changed = false
		for _, a := range q.Axes {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
			inTo := toSet(pv[a.To])
			inFrom := toSet(pv[a.From])
			var keepFrom []tree.NodeID
			for _, v := range pv[a.From] {
				ok := false
				t.StepFunc(a.Axis, v, func(w tree.NodeID) bool {
					if inTo[w] {
						ok = true
						return false
					}
					return true
				})
				if ok {
					keepFrom = append(keepFrom, v)
				}
			}
			if len(keepFrom) != len(pv[a.From]) {
				pv[a.From] = keepFrom
				changed = true
			}
			if len(keepFrom) == 0 {
				return nil, false, nil
			}
			var keepTo []tree.NodeID
			for _, w := range pv[a.To] {
				ok := false
				t.StepFunc(a.Axis.Inverse(), w, func(v tree.NodeID) bool {
					if inFrom[v] {
						ok = true
						return false
					}
					return true
				})
				if ok {
					keepTo = append(keepTo, w)
				}
			}
			if len(keepTo) != len(pv[a.To]) {
				pv[a.To] = keepTo
				changed = true
			}
			if len(keepTo) == 0 {
				return nil, false, nil
			}
		}
	}
	return pv, true, nil
}
