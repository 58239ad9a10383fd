package xpath

import (
	"math/bits"
	"sort"

	"repro/internal/bitset"
	"repro/internal/index"
	"repro/internal/tree"
)

// NodeSet is a set of tree nodes represented as a sorted slice: ascending
// NodeIDs, which is document order.
type NodeSet []tree.NodeID

// ToSet converts the slice into a membership map.
func (s NodeSet) ToSet() map[tree.NodeID]bool {
	m := make(map[tree.NodeID]bool, len(s))
	for _, n := range s {
		m[n] = true
	}
	return m
}

// Contains reports whether the set contains n.
func (s NodeSet) Contains(n tree.NodeID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= n })
	return i < len(s) && s[i] == n
}

func newNodeSet(m map[tree.NodeID]bool) NodeSet {
	out := make(NodeSet, 0, len(m))
	for n, ok := range m {
		if ok {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EvaluateNaive implements the textbook semantics (P1)-(P4), (Q1)-(Q5)
// literally: [[p]](n) is computed by recursion on p for a single context
// node, re-evaluating shared subexpressions for every node they are reached
// from.  Worst-case exponential-time; reference oracle and baseline.
func EvaluateNaive(e Expr, t *tree.Tree, context tree.NodeID) NodeSet {
	return newNodeSet(naiveExpr(e, t, context))
}

// QueryNaive evaluates the unary query [[p]](root) (Section 3).
func QueryNaive(e Expr, t *tree.Tree) NodeSet { return EvaluateNaive(e, t, t.Root()) }

func naiveExpr(e Expr, t *tree.Tree, n tree.NodeID) map[tree.NodeID]bool {
	switch e := e.(type) {
	case *Union:
		out := naiveExpr(e.Left, t, n)
		for m := range naiveExpr(e.Right, t, n) {
			out[m] = true
		}
		return out
	case *Path:
		// Absolute paths start at the virtual document node (the parent of the
		// root element), matching standard XPath: "/a" selects the root element
		// when it is labeled a, and "//a" (which desugars to
		// /descendant-or-self::*/child::a) selects every a including the root.
		// The document node has no label, so it survives only steps with a "*"
		// test and no qualifiers, and it is never part of the returned set.
		current := map[tree.NodeID]bool{}
		hasDoc := false
		if e.Absolute {
			hasDoc = true
		} else {
			current[n] = true
		}
		for _, s := range e.Steps {
			next := map[tree.NodeID]bool{}
			admit := func(m tree.NodeID) {
				if s.Test != "*" && !t.HasLabel(m, s.Test) {
					return
				}
				for _, q := range s.Quals {
					if !naiveQual(q, t, m) {
						return
					}
				}
				next[m] = true
			}
			for c := range current {
				t.StepFunc(s.Axis, c, func(m tree.NodeID) bool {
					admit(m)
					return true
				})
			}
			nextDoc := false
			if hasDoc {
				switch s.Axis {
				case tree.Self:
					nextDoc = true
				case tree.Child:
					admit(t.Root())
				case tree.Descendant:
					for _, m := range t.Nodes() {
						admit(m)
					}
				case tree.DescendantOrSelf:
					nextDoc = true
					for _, m := range t.Nodes() {
						admit(m)
					}
				}
			}
			current = next
			hasDoc = nextDoc && s.Test == "*" && len(s.Quals) == 0
		}
		return current
	}
	return nil
}

func naiveQual(q Qual, t *tree.Tree, n tree.NodeID) bool {
	switch q := q.(type) {
	case *QualLabel:
		return t.HasLabel(n, q.Label)
	case *QualPath:
		return len(naiveExpr(q.Path, t, n)) > 0
	case *QualAnd:
		return naiveQual(q.Left, t, n) && naiveQual(q.Right, t, n)
	case *QualOr:
		return naiveQual(q.Left, t, n) || naiveQual(q.Right, t, n)
	case *QualNot:
		return !naiveQual(q.Inner, t, n)
	}
	return false
}

// Evaluate is the efficient set-at-a-time evaluator — the Core XPath
// algorithm of [33]: context sets are pushed through steps as bit vectors,
// and every qualifier is evaluated once, globally, into the set of nodes
// satisfying it (computed by evaluating its path right-to-left through
// inverse axes).  Combined complexity O(|D| * |Q|) for the whole of Core
// XPath, including negation.
func Evaluate(e Expr, t *tree.Tree, context NodeSet) NodeSet {
	return EvaluateIndexed(e, t, context, nil)
}

// EvaluateIndexed is Evaluate over a shared document index, which supplies
// the per-label node masks; the tree's Image maps a set through an axis by
// range fills and single pointer chases.  A nil index indexes the tree for
// this call.
func EvaluateIndexed(e Expr, t *tree.Tree, context NodeSet, ix *index.Index) NodeSet {
	if ix == nil {
		ix = index.New(t)
	}
	ev := &evaluator{t: t, ix: ix, n: t.Len()}
	from := bitset.Acquire(ev.n)
	for _, n := range context {
		from.Set(int(n))
	}
	res := ev.exprSet(e, from)
	out := make(NodeSet, 0, res.Count())
	for wi, w := range res {
		for ; w != 0; w &= w - 1 {
			out = append(out, tree.NodeID(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	bitset.Release(from)
	bitset.Release(res)
	return out
}

// Query evaluates the unary Core XPath query [[p]](root).
func Query(e Expr, t *tree.Tree) NodeSet {
	return Evaluate(e, t, NodeSet{t.Root()})
}

// QueryIndexed evaluates the unary query over a shared index.
func QueryIndexed(e Expr, t *tree.Tree, ix *index.Index) NodeSet {
	return EvaluateIndexed(e, t, NodeSet{t.Root()}, ix)
}

// evaluator is the state of one evaluation.  Every set is a bit vector over
// NodeIDs, which are preorder ranks: the space in which tree.Image works and
// label masks are indexed.
//
// Ownership discipline for bit vectors: every evaluator method that returns
// a set returns one owned by the caller (obtained from the bitset pool and
// eventually Released); `from` arguments are read-only and stay owned by the
// caller; masks handed out by the shared index are never mutated or
// Released.
type evaluator struct {
	t  *tree.Tree
	ix *index.Index
	n  int
}

// restrictToLabel clears from set every node that does not carry the label:
// every node, without touching the index, when the tree's dictionary lacks it.
func (ev *evaluator) restrictToLabel(set bitset.Bits, label string) {
	c := ev.t.Dict().Code(label)
	if c == tree.NoCode {
		set.Reset()
		return
	}
	set.And(ev.ix.CodeMask(c))
}

// image returns the image of from under the axis.
func (ev *evaluator) image(axis tree.Axis, from bitset.Bits) bitset.Bits {
	out := bitset.Acquire(ev.n)
	ev.t.Image(axis, from, out)
	return out
}

// restrictToQuals clears from set every node failing one of the qualifiers.
func (ev *evaluator) restrictToQuals(set bitset.Bits, quals []Qual) {
	for _, q := range quals {
		sat := ev.qualSatSet(q)
		set.And(sat)
		bitset.Release(sat)
	}
}

// fuse undoes the "//" abbreviation: the step pair
// descendant-or-self::*/child::T[q] is the single step descendant::T[q].  It
// is the one "//" normalization of the package's evaluators and of the
// streaming matcher: for the image evaluator it saves a child chase over
// everything a range fill reached, for the streaming matcher a "*" test
// every node passes.
func fuse(d, c Step) (Step, bool) {
	if d.Axis == tree.DescendantOrSelf && d.Test == "*" && len(d.Quals) == 0 && c.Axis == tree.Child {
		return Step{Axis: tree.Descendant, Test: c.Test, Quals: c.Quals}, true
	}
	return Step{}, false
}

func (ev *evaluator) exprSet(e Expr, from bitset.Bits) bitset.Bits {
	switch e := e.(type) {
	case *Union:
		l := ev.exprSet(e.Left, from)
		r := ev.exprSet(e.Right, from)
		l.Or(r)
		bitset.Release(r)
		return l
	case *Path:
		// See naiveExpr for the document-node convention on absolute paths;
		// the two evaluators implement it identically.  Fusing "//" agrees
		// with it: from the document node, descendant-or-self::*/child::T and
		// descendant::T both reach every node, and neither keeps the document
		// node in the set.
		current := bitset.Acquire(ev.n)
		hasDoc := e.Absolute
		if !hasDoc {
			current.CopyFrom(from)
		}
		for i := 0; i < len(e.Steps); i++ {
			s := e.Steps[i]
			if i+1 < len(e.Steps) {
				if f, ok := fuse(s, e.Steps[i+1]); ok {
					s, i = f, i+1
				}
			}
			var next bitset.Bits
			nextDoc := false
			if hasDoc && (s.Axis == tree.Descendant || s.Axis == tree.DescendantOrSelf) {
				next = bitset.Acquire(ev.n)
				next.SetAll(ev.n)
				nextDoc = s.Axis == tree.DescendantOrSelf
			} else {
				next = ev.image(s.Axis, current)
				if hasDoc {
					switch s.Axis {
					case tree.Self:
						nextDoc = true
					case tree.Child:
						next.Set(0) // the root element
					}
				}
			}
			if s.Test != "*" {
				ev.restrictToLabel(next, s.Test)
			}
			ev.restrictToQuals(next, s.Quals)
			bitset.Release(current)
			current = next
			hasDoc = nextDoc && s.Test == "*" && len(s.Quals) == 0
		}
		return current
	}
	return bitset.Acquire(ev.n)
}

// qualSatSet computes, once and globally, the set of nodes satisfying the
// qualifier.  The returned vector is owned by the caller.
func (ev *evaluator) qualSatSet(q Qual) bitset.Bits {
	switch q := q.(type) {
	case *QualLabel:
		out := bitset.Acquire(ev.n)
		out.SetAll(ev.n)
		ev.restrictToLabel(out, q.Label)
		return out
	case *QualAnd:
		l := ev.qualSatSet(q.Left)
		r := ev.qualSatSet(q.Right)
		l.And(r)
		bitset.Release(r)
		return l
	case *QualOr:
		l := ev.qualSatSet(q.Left)
		r := ev.qualSatSet(q.Right)
		l.Or(r)
		bitset.Release(r)
		return l
	case *QualNot:
		l := ev.qualSatSet(q.Inner)
		l.Not(ev.n)
		return l
	case *QualPath:
		return ev.pathNonEmptySet(q.Path)
	}
	return bitset.Acquire(ev.n)
}

// pathNonEmptySet computes { n : [[p]](n) != empty } for a path expression
// by processing its steps right to left through the inverse axes: a node can
// start the path iff stepping the first axis from it can reach a node that
// passes the first test/qualifiers and can continue the rest of the path.
func (ev *evaluator) pathNonEmptySet(e Expr) bitset.Bits {
	switch e := e.(type) {
	case *Union:
		l := ev.pathNonEmptySet(e.Left)
		r := ev.pathNonEmptySet(e.Right)
		l.Or(r)
		bitset.Release(r)
		return l
	case *Path:
		if e.Absolute {
			// An absolute path has the same (root-anchored) value from every
			// context node, so it is non-empty either everywhere or nowhere.
			empty := bitset.Acquire(ev.n)
			res := ev.exprSet(e, empty)
			bitset.Release(empty)
			if res.Any() {
				res.SetAll(ev.n)
			}
			return res
		}
		// target: nodes that can serve as the endpoint of the remaining path
		// (initially: all nodes).
		target := bitset.Acquire(ev.n)
		target.SetAll(ev.n)
		for i := len(e.Steps) - 1; i >= 0; i-- {
			s := e.Steps[i]
			if i > 0 {
				if f, ok := fuse(e.Steps[i-1], s); ok {
					s, i = f, i-1
				}
			}
			// Restrict targets to those passing the step's test and qualifiers.
			if s.Test != "*" {
				ev.restrictToLabel(target, s.Test)
			}
			ev.restrictToQuals(target, s.Quals)
			// A node can take this step iff some node related to it by the axis
			// is a valid target: image through the inverse axis.
			inv := ev.image(s.Axis.Inverse(), target)
			bitset.Release(target)
			target = inv
		}
		return target
	}
	return bitset.Acquire(ev.n)
}
